"""Run one workload's CLI call inside this process and print its timing as JSON.

    python3 perfbench/tracer.py --workload verify-all            # untraced
    python3 perfbench/tracer.py --workload verify-all --traced   # per-layer

Both forms time `qosp.cli.main(argv)` after the imports, with standard output
captured and checked by the same gate as the end-to-end runs.  The untraced
form is the base of `trace.overhead_ratio`.

With `--traced`, wrappers defined here replace qosp's functions from the
outside; nothing under `src/` changes.  Every wrapper keeps call counts and
self time (its duration minus that of the wrapped calls it made).  Scalar
operations run millions of times, so they only update counters.  All other
wrapped calls also record a span (id, parent id, name, start, end), and the
spans are written to `--spans` when the call ends.  The wrappers cost time, so
end-to-end metrics never come from a traced process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import sys
import time
import traceback
import types

from workloads import SRC, WORKLOADS, gate, output_checks

LAYERS = ("scalar", "gmatrix", "reps", "matrices", "coproducts", "phi", "report", "cli")

# Constructions of the named matrices in `matrices`; each takes no input.
MATRIX_BUILDS = (
    "kr_rmatrix",
    "m_matrix",
    "x_entries",
    "transform_r",
    "contract_r",
    "f_jordanian",
    "f_super_fund",
    "named_matrix",
)

# Counts that must repeat exactly between two traced runs of the same code.
STABLE_COUNTS = (
    "scalar.mul.calls",
    "gmatrix.mul.calls",
    "matrices.contract_r.calls",
    "gmatrix.exp_nilpotent.calls",
    "report.checks",
)

# name -> unit of every per-layer metric; run.py adds trace.overhead_ratio.
UNITS = {
    "matrices.contract_r.calls": "count",
    "matrices.transform_r.calls": "count",
    "matrices.build.self_s": "s",
    "matrices.check_golden.self_s": "s",
    "matrices.self_s": "s",
    "scalar.mul.calls": "count",
    "scalar.mul.rational_share": "ratio",
    "scalar.add.calls": "count",
    "scalar.self_s": "s",
    "scalar.parse_format.calls": "count",
    "gmatrix.mul.calls": "count",
    "gmatrix.mul.self_s": "s",
    "gmatrix.mul.density": "ratio",
    "gmatrix.mul.dim_max": "rows",
    "gmatrix.gkron.calls": "count",
    "gmatrix.gkron.self_s": "s",
    "gmatrix.inverse.calls": "count",
    "gmatrix.inverse.self_s": "s",
    "gmatrix.exp_nilpotent.calls": "count",
    "gmatrix.exp_nilpotent.self_s": "s",
    "gmatrix.check_gybe.self_s": "s",
    "gmatrix.entrywise.calls": "count",
    "gmatrix.self_s": "s",
    "phi.solve_phi.self_s": "s",
    "phi.exponent_from_bilinear.calls": "count",
    "phi.check_intertwining_s.self_s": "s",
    "phi.solve_linear_system.calls": "count",
    "phi.solve_linear_system.self_s": "s",
    "phi.self_s": "s",
    "reps.irrep.calls": "count",
    "reps.check_lt_relations.self_s": "s",
    "reps.self_s": "s",
    "coproducts.frt_check.self_s": "s",
    "coproducts.check_homomorphism.self_s": "s",
    "coproducts.cocycle.self_s": "s",
    "coproducts.self_s": "s",
    "report.checks": "count",
    "report.failed": "count",
    "cli.serialize_s": "s",
}


class Tracer:
    """Call counts, self times and spans for the wrapped functions."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # Frames are [key, time covered by wrapped calls made inside, span id].
        self.stack = [[None, 0.0, 0]]
        self.busy = [0]
        self.stats = {}
        self.spans = []
        self.mul = {"rational": 0, "useful": 0, "dense": 0, "dim_max": 0}
        self.wrappers = {}

    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0])

    def wrap(self, fn, key, pre=None):
        """Return a wrapper of fn that books its calls, self time and span to key.

        A call made directly inside a call with the same key is not counted
        again.  The caller's self time excludes the whole wrapper, so the
        wrapper's own bookkeeping and `pre(args)`, a counting hook run
        before the clock starts, show as work of no layer.
        """
        clock, stack, spans, origin = self.clock, self.stack, self.spans, self.origin
        stat = self._stat(key)

        def wrapper(*args, **kwargs):
            t_enter = clock()
            parent = stack[-1]
            if pre is not None:
                pre(args)
            if parent[0] != key:
                stat[0] += 1
            sid = len(spans) + 1
            spans.append(None)
            frame = [key, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[1] += t1 - t0 - frame[1]
                spans[sid - 1] = (sid, parent[2], key, t0 - origin, t1 - origin)
                parent[1] += clock() - t_enter

        self.wrappers[fn] = wrapper
        return wrapper

    def wrap_leaf(self, fn, key, pre=None):
        """Like wrap, for the Scalar operations: no frame and no span.

        Only the outermost Scalar operation is counted and timed; those it
        calls itself (`-` calls `+`, `**` calls `*`) are part of its work.
        """
        clock, stack, busy = self.clock, self.stack, self.busy
        stat = self._stat(key)

        def wrapper(*args):
            if busy[0]:
                return fn(*args)
            t_enter = clock()
            busy[0] = 1
            try:
                if pre is not None:
                    pre(args)
                t0 = clock()
                result = fn(*args)
                t1 = clock()
            finally:
                busy[0] = 0
            stat[0] += 1
            stat[1] += t1 - t0
            stack[-1][1] += clock() - t_enter
            return result

        self.wrappers[fn] = wrapper
        return wrapper

    # A name the code no longer has is skipped: its metrics then read 0.
    def patch(self, owner, name, key):
        if hasattr(owner, name):
            setattr(owner, name, self.wrap(getattr(owner, name), key))

    def patch_leaf(self, owner, name, key, pre=None):
        if hasattr(owner, name):
            setattr(owner, name, self.wrap_leaf(getattr(owner, name), key, pre))

    def rebind(self):
        """Point every qosp module's name for a wrapped function at its wrapper.

        Modules import functions by name (`from .gmatrix import gkron`), so
        patching the defining module alone would miss those calls.
        """
        by_id = {id(fn): (fn, w) for fn, w in self.wrappers.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "qosp" and not modname.startswith("qosp."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def count_rational(self, args):
        a, b = args
        if a.is_rational() or b.is_rational():
            self.mul["rational"] += 1

    def count_density(self, args):
        a, b = args
        cols = [0] * a.dim
        for _, j, _ in a.entries():
            cols[j] += 1
        rows = [0] * b.dim
        for i, _, _ in b.entries():
            rows[i] += 1
        self.mul["useful"] += sum(c * r for c, r in zip(cols, rows))
        self.mul["dense"] += a.dim * a.dim * b.dim
        self.mul["dim_max"] = max(self.mul["dim_max"], a.dim)


def _public_functions(mod):
    for name, fn in vars(mod).items():
        # Memoized functions (functools.cache) are callables, not functions.
        if (
            callable(fn)
            and not inspect.isclass(fn)
            and getattr(fn, "__module__", None) == mod.__name__
            and not name.startswith("_")
            and not inspect.isgeneratorfunction(fn)
        ):
            yield name


def install(tracer):
    """Wrap qosp's public functions layer by layer, from outside the package."""
    mods = {name: importlib.import_module("qosp." + name) for name in LAYERS}
    scalar, gmatrix, cli = mods["scalar"], mods["gmatrix"], mods["cli"]

    scalar_cls = scalar.Scalar
    tracer.patch_leaf(scalar_cls, "__mul__", "scalar.mul", pre=tracer.count_rational)
    for name in ("__add__", "__sub__"):
        tracer.patch_leaf(scalar_cls, name, "scalar.add")
    for name in ("__neg__", "__truediv__", "__pow__", "scale", "xi_coefficient", "drop_xi_above"):
        tracer.patch_leaf(scalar_cls, name, "scalar.other")
    for name in ("inv", "divide_exact", "substitute", "limit_at_one"):
        tracer.patch_leaf(scalar, name, "scalar.other")
    for name in ("parse_scalar", "parse_poly", "format_scalar", "format_poly"):
        tracer.patch_leaf(scalar, name, "scalar.parse_format")

    matrix_cls = gmatrix.GradedMatrix
    plain_mul = matrix_cls.__mul__
    matmul = tracer.wrap(plain_mul, "gmatrix.mul", pre=tracer.count_density)
    # Matrix * Scalar only forwards to scale(), which is wrapped below.
    matrix_cls.__mul__ = lambda a, b: matmul(a, b) if isinstance(b, matrix_cls) else plain_mul(a, b)
    for name in ("map_entries", "substitute", "drop_xi_above", "xi_coefficient"):
        tracer.patch(matrix_cls, name, "gmatrix.entrywise")
    for name in ("__add__", "__sub__", "__neg__", "__pow__", "__eq__", "scale", "transpose", "copy"):
        tracer.patch(matrix_cls, name, "gmatrix." + name.strip("_"))

    for layer in ("gmatrix", "reps", "matrices", "coproducts", "phi"):
        for name in list(_public_functions(mods[layer])):
            tracer.patch(mods[layer], name, "%s.%s" % (layer, name))
    for name in ("e_power", "s_power_h", "lt_generators", "image", "rescaled"):
        tracer.patch(mods["reps"].Representation, name, "reps." + name)
    tracer.patch(mods["coproducts"].CoproductMap, "evaluate", "coproducts.evaluate")
    tracer.patch(mods["report"].Report, "to_json", "report.to_json")

    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__ == cli.__name__:
            tracer.patch(cli, name, "cli." + name)
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(vars(json))
    json_proxy.dumps = tracer.wrap(json.dumps, "cli.json_dumps")
    cli.json = json_proxy
    tracer.rebind()


def layer_metrics(tracer, checks):
    """The per-layer metrics of one traced call (all but trace.overhead_ratio)."""
    stats, mul = tracer.stats, tracer.mul

    def n(key):
        return stats.get(key, (0, 0.0))[0]

    def s(*keys):
        return sum(stats.get(k, (0, 0.0))[1] for k in keys)

    def layer(name):
        return sum(v[1] for k, v in stats.items() if k.split(".", 1)[0] == name)

    m = {
        "matrices.contract_r.calls": n("matrices.contract_r"),
        "matrices.transform_r.calls": n("matrices.transform_r"),
        "matrices.build.self_s": s(*("matrices." + b for b in MATRIX_BUILDS)),
        "matrices.check_golden.self_s": s("matrices.check_golden"),
        "scalar.mul.calls": n("scalar.mul"),
        "scalar.mul.rational_share": mul["rational"] / max(n("scalar.mul"), 1),
        "scalar.add.calls": n("scalar.add"),
        "scalar.parse_format.calls": n("scalar.parse_format"),
        "gmatrix.mul.calls": n("gmatrix.mul"),
        "gmatrix.mul.self_s": s("gmatrix.mul"),
        "gmatrix.mul.density": mul["useful"] / max(mul["dense"], 1),
        "gmatrix.mul.dim_max": mul["dim_max"],
        "gmatrix.entrywise.calls": n("gmatrix.entrywise"),
        "gmatrix.check_gybe.self_s": s("gmatrix.check_gybe"),
        "phi.solve_phi.self_s": s("phi.solve_phi"),
        "phi.exponent_from_bilinear.calls": n("phi.exponent_from_bilinear"),
        "phi.check_intertwining_s.self_s": s("phi.check_intertwining_s"),
        "reps.irrep.calls": n("reps.irrep"),
        "reps.check_lt_relations.self_s": s("reps.check_lt_relations"),
        "coproducts.frt_check.self_s": s("coproducts.frt_check"),
        "coproducts.check_homomorphism.self_s": s("coproducts.check_homomorphism"),
        "coproducts.cocycle.self_s": s(
            "coproducts.check_cocycle_jordanian", "coproducts.check_coassociativity_jordanian"),
        "report.checks": len(checks),
        "report.failed": sum(1 for c in checks if c.get("pass") is not True),
        "cli.serialize_s": s("report.to_json", "cli.json_dumps", "cli._write_out"),
    }
    for key in ("gmatrix.gkron", "gmatrix.inverse", "gmatrix.exp_nilpotent", "phi.solve_linear_system"):
        m[key + ".calls"] = n(key)
        m[key + ".self_s"] = s(key)
    for name in ("matrices", "scalar", "gmatrix", "phi", "reps", "coproducts"):
        m[name + ".self_s"] = layer(name)
    return {k: m[k] for k in UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="file to write the spans to (traced only)")
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from qosp import cli

    tracer = None
    if args.traced:
        tracer = Tracer()
        install(tracer)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(WORKLOADS[args.workload]))
        except Exception:  # as the CLI process would: traceback and exit 1
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(err.getvalue()[-2000:])

    attempted, failed, problems = gate(args.workload, rc, out.getvalue())
    result = {"wall_s": wall, "attempted": attempted, "failed": failed, "problems": problems}
    if tracer is not None:
        try:
            checks = output_checks(args.workload, json.loads(out.getvalue()))
        except (ValueError, KeyError, TypeError):
            checks = []
        result["metrics"] = layer_metrics(tracer, checks)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"trace_id": args.trace_id, "workload": args.workload,
                           "fields": ["id", "parent", "name", "start_s", "end_s"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: emit matrices, run suites, solve the series.

Exit codes: 0 all requested checks pass, 1 at least one failed,
2 usage error (bad arguments, an unsupported spin, a missing or
malformed golden fixture).  All variable bindings are exact rationals;
output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .coproducts import (
    CLASSICAL,
    JORDANIAN,
    Q_DEFORMED,
    SUPER_JORDANIAN,
    check_cocycle_jordanian,
    check_coassociativity_jordanian,
    check_homomorphism,
    check_l_coproducts,
    check_qcoproduct_xplus,
    check_r_intertwines,
    frt_check,
)
from .gmatrix import residual_check, to_json_dict
from .matrices import (
    FIXTURE_NAMES,
    FixtureError,
    check_factorization,
    contract_r,
    f_super_fund,
    kr_rmatrix,
    matrix_suite,
    named_matrix,
    triangular_suite,
    ybe_suite,
)
from .phi import (
    MAX_ORDER,
    build_f_super,
    check_intertwining_s,
    f1_table,
    rank_one_terms,
    solve_phi,
)
from .report import Report
from .reps import SUPPORTED_SPINS, check_lt_relations, fundamental_rep, irrep
from .scalar import ScalarError, format_scalar, rational


class UsageError(Exception):
    pass


def _echo(text, form="%r"):
    """form % text for a usage error, cut past 40 characters with the length named."""
    if len(text) <= 40:
        return form % text
    return form % text[:40] + "... (%d characters)" % len(text)


def _fraction(text, what, bad):
    """Fraction(text), else UsageError(bad), or one naming what past Python's digit limit."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        digits = max(sum(ch.isdigit() for ch in part) for part in text.split("/"))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and digits > limit:
            bad = "%s has a %d-digit integer, past Python's %d-digit limit" % (what, digits, limit)
        raise UsageError(bad)


def _parse_spin(text):
    if "e" in text.lower():
        raise UsageError("spin %s must be an exact rational like 1/2" % _echo(text))
    spin = _fraction(text, "spin", "bad spin %s" % _echo(text))
    if spin not in SUPPORTED_SPINS:
        raise UsageError(
            "unsupported spin %s (supported: %s)"
            % (_echo(str(spin), "%s"), ", ".join(str(s) for s in SUPPORTED_SPINS))
        )
    return spin


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %d" % value)
    return value


def _parse_bindings(pairs):
    bindings = {}
    for item in pairs or []:
        name, _, value = item.partition("=")
        if name not in ("s", "theta", "xi") or not value:
            raise UsageError("bad --set binding %s (expected var=rational)" % _echo(item))
        if name in bindings:
            raise UsageError("repeated --set binding %s" % name)
        if "." in value or "e" in value.lower():
            raise UsageError("binding %s must be an exact rational like 1/2" % _echo(item))
        bad = "binding %s is not an exact rational" % _echo(item)
        bindings[name] = rational(_fraction(value, "binding " + name, bad))
    return bindings


def _substitute(m, bindings, pairs):
    """m with the --set bindings applied; a binding at a pole is bad input."""
    try:
        return m.substitute(bindings)
    except ScalarError as exc:
        raise UsageError("cannot evaluate at --set %s: %s" % (_echo(" ".join(pairs), "%s"), exc))


def _matrix_csv(m):
    lines = []
    for i in range(m.dim):
        lines.append(",".join('"%s"' % format_scalar(m[i, j]) for j in range(m.dim)))
    return "\n".join(lines) + "\n"


def _latex_scalar(v):
    text = format_scalar(v)
    text = text.replace("theta", r"\theta").replace("xi", r"\xi").replace("*", " ")
    return text


def _matrix_latex(m):
    cols = "c" * m.dim
    lines = [r"\left(\begin{array}{%s}" % cols]
    for i in range(m.dim):
        lines.append(" & ".join(_latex_scalar(m[i, j]) for j in range(m.dim)) + r" \\")
    lines.append(r"\end{array}\right)")
    return "\n".join(lines) + "\n"


def cmd_emit(args):
    if (args.matrix is None) == (args.rep is None):
        raise UsageError("emit needs exactly one of --matrix or --rep")
    if args.rep is not None and args.format != "json":
        raise UsageError("--rep output is JSON only")
    bindings = _parse_bindings(args.set)
    if args.matrix:
        m = named_matrix(args.matrix)
        if bindings:
            m = _substitute(m, bindings, args.set)
    else:
        r = irrep(_parse_spin(args.rep))
        cap_h, e_mat, v_mat, w_mat = r.lt_generators()
        mats = {
            "h": r.h,
            "v_plus": r.v_plus,
            "v_minus": r.v_minus,
            "sigma": r.sigma,
            "E": e_mat,
            "H": cap_h,
            "V": v_mat,
            "W": w_mat,
        }
        if bindings:
            mats = {k: _substitute(m, bindings, args.set) for k, m in mats.items()}
    try:
        if args.rep:
            payload = {
                "spin": str(r.spin),
                "dim": r.dim,
                "matrices": {k: to_json_dict(m) for k, m in sorted(mats.items())},
            }
            text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        elif args.format == "json":
            text = json.dumps(to_json_dict(m), indent=1, sort_keys=True) + "\n"
        elif args.format == "csv":
            text = _matrix_csv(m)
        else:
            text = _matrix_latex(m)
    except ValueError as exc:
        # an entry with more digits than Python converts to text
        raise UsageError("cannot print the result at these --set values: %s" % exc)
    _write_out(args.out, text)
    return 0


def _frt(spins, order):
    for spin in spins:
        r = irrep(spin)
        yield check_lt_relations(r)
        yield Report("FRT relation spin %s" % spin, [frt_check(r)])


def _cocycle(spins, order):
    f = fundamental_rep()
    yield Report(
        "cocycle of the even twist",
        [check_cocycle_jordanian(f, f, f), check_cocycle_jordanian(f, f, irrep(1))],
    )
    yield check_coassociativity_jordanian(f, f, f)


def _hopf(spins, order):
    f = fundamental_rep()
    r1 = irrep(1)
    for cp, pairs in (
        (CLASSICAL, [(f, f), (f, r1)]),
        (JORDANIAN, [(f, f), (f, r1)]),
        (Q_DEFORMED, [(f, f)]),
        (SUPER_JORDANIAN, [(f, f)]),
    ):
        for a, b in pairs:
            yield check_homomorphism(cp, a, b)
    yield check_r_intertwines(kr_rmatrix(), Q_DEFORMED, f)
    yield check_r_intertwines(contract_r(), SUPER_JORDANIAN, f)
    yield check_l_coproducts()
    yield check_qcoproduct_xplus(f, f)


def _intertwine(spins, order):
    f = fundamental_rep()
    table = f1_table()
    yield check_intertwining_s(table, f, f, order)
    residual = build_f_super(table, f, f) - f_super_fund()
    yield Report(
        "odd twist matrix from f1",
        [residual_check("f1 alone reconstructs the odd twist matrix", residual)],
    )


# suite name -> (spins, order) -> reports; `all` runs every suite in this order
SUITES = {
    "ybe": lambda spins, order: [ybe_suite()],
    "triangular": lambda spins, order: [triangular_suite()],
    "factorization": lambda spins, order: [check_factorization()],
    "matrix": lambda spins, order: [matrix_suite()],
    "frt": _frt,
    "cocycle": _cocycle,
    "hopf": _hopf,
    "intertwine": _intertwine,
}


def cmd_verify(args):
    spins = [_parse_spin(s) for s in args.spins.split(",")]
    for k, spin in enumerate(spins):
        if spin in spins[:k]:
            raise UsageError("repeated spin %s" % spin)
    names = SUITES if args.suite == "all" else [args.suite]
    reports = [rep for name in names for rep in SUITES[name](spins, args.order)]
    if args.json:
        text = json.dumps([rep.to_json() for rep in reports], indent=1) + "\n"
    else:
        text = "\n".join(rep.summary() for rep in reports) + "\n"
    _write_out(args.out, text)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_solve_phi(args):
    pairs = []
    seen = set()
    for spec_item in args.pairs.split(","):
        a, _, b = spec_item.partition(":")
        if not b:
            raise UsageError("bad --pairs entry %s (expected spin:spin)" % _echo(spec_item))
        spins = (_parse_spin(a), _parse_spin(b))
        if spins in seen:
            raise UsageError("repeated module pair %s:%s" % spins)
        seen.add(spins)
        pairs.append((irrep(spins[0]), irrep(spins[1])))
    order = args.order
    table, rep = solve_phi(order, pairs)
    payload = {
        "order": order,
        "pairs": [[str(a.spin), str(b.spin)] for a, b in pairs],
        "bilinear": {"%d,%d" % key: str(val) for key, val in sorted(table.items())},
        "terms": [
            [
                {str(m): str(c) for m, c in sorted(left.items())},
                {str(m): str(c) for m, c in sorted(right.items())},
            ]
            for left, right in rank_one_terms(table)
        ],
        "report": rep.to_json(),
    }
    _write_out(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    sys.stderr.write(rep.summary() + "\n")
    return 0 if rep.passed else 1


def _write_out(path, text):
    if not path:
        return sys.stdout.write(text)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qosp",
        description="exact reconstruction and verification of the twisted osp(1|2) matrix constructions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_emit = sub.add_parser("emit", help="emit a named matrix or module data")
    p_emit.add_argument("--matrix", choices=FIXTURE_NAMES)
    p_emit.add_argument("--rep", help="spin of the module to serialize")
    p_emit.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p_emit.add_argument("--set", action="append", metavar="VAR=RATIONAL")
    p_emit.add_argument("--out")
    p_emit.set_defaults(func=cmd_emit)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=("all", *SUITES), default="all")
    p_verify.add_argument("--spins", default="1/2,1", help="comma-separated spins, default 1/2,1")
    p_verify.add_argument("--order", type=_positive_int, default=3, help="xi truncation order")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve-phi", help="solve the odd twist series")
    p_solve.add_argument(
        "--order",
        type=int,
        default=2,
        choices=range(1, MAX_ORDER + 1),
        help="max series term index",
    )
    p_solve.add_argument("--pairs", default="1:1/2,1:1", help="spin pairs a:b,c:d, default %(default)s")
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve_phi)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, FixtureError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

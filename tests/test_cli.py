"""Command-line behavior: emission formats, suites, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from fixture_files import write_fixture
from qosp import phi as phi_mod
from qosp.cli import SUITES, SUPPORTED_SPINS, build_parser, main
from qosp.gmatrix import from_json_dict
from qosp.matrices import (
    FIXTURE_NAMES,
    contract_r,
    f_jordanian_fund,
    f_super_fund,
    fixture_path,
    kr_rmatrix,
    load_fixture,
    named_matrix,
    transform_r,
)
from qosp.reps import Representation, irrep
from qosp.scalar import format_scalar, parse_scalar, xi_var
from scalar_oracle import exact_coefficients
from test_cli_outputs import RECORDED, SRC


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_emit_json_round_trip(capsys):
    for name in ("kr", "transformed", "sjr", "fj", "fs"):
        rc, out, _ = run_cli(["emit", "--matrix", name], capsys)
        assert rc == 0
        assert from_json_dict(json.loads(out)) == named_matrix(name)


def test_emit_with_binding(capsys):
    rc, out, _ = run_cli(
        ["emit", "--matrix", "sjr", "--format", "json", "--set", "xi=1"], capsys
    )
    assert rc == 0
    entries = {(e[0], e[1]): e[2] for e in json.loads(out)["entries"]}
    assert entries[(1, 9)] == "1/2"


def test_emit_kr_at_s_one_is_identity(capsys):
    rc, out, _ = run_cli(["emit", "--matrix", "kr", "--set", "s=1"], capsys)
    assert rc == 0
    entries = json.loads(out)["entries"]
    assert all(e[0] == e[1] and e[2] == "1" for e in entries)
    assert len(entries) == 9


def test_emit_csv_and_latex(capsys):
    rc, out, _ = run_cli(["emit", "--matrix", "sjr", "--format", "csv"], capsys)
    assert rc == 0
    assert len(out.strip().splitlines()) == 9
    rc, out, _ = run_cli(["emit", "--matrix", "fs", "--format", "latex"], capsys)
    assert rc == 0
    assert out.startswith(r"\left(\begin{array}{ccccccccc}")
    assert r"\xi" in out


def test_emit_rep(capsys):
    rc, out, _ = run_cli(["emit", "--rep", "1"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dim"] == 5
    assert sorted(payload["matrices"]) == [
        "E", "H", "V", "W", "h", "sigma", "v_minus", "v_plus",
    ]
    sigma = from_json_dict(payload["matrices"]["sigma"])
    assert sigma == irrep(1).image("sigma")


def test_emit_rep_is_json_only(capsys):
    rc, out, err = run_cli(["emit", "--rep", "1", "--format", "csv"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: --rep output is JSON only\n"


def test_emit_usage_errors(capsys):
    rc, _, err = run_cli(["emit"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["emit", "--matrix", "kr", "--set", "xi=0.5"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["emit", "--matrix", "kr", "--set", "zeta=1"], capsys)
    assert rc == 2


@pytest.mark.parametrize("value", ["1e5000", "1E3", "2/1e3"])
def test_emit_rejects_exponent_notation(value, capsys):
    """Exponent notation is refused before Fraction can build 10**N."""
    rc, out, err = run_cli(["emit", "--matrix", "kr", "--set", "s=" + value], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: binding 's=%s' must be an exact rational like 1/2\n" % value


def test_emit_value_too_long_to_print_is_usage_error(capsys):
    """s with 3000 digits makes q = s**2 longer than Python converts to text."""
    args = ["emit", "--matrix", "kr", "--format", "csv", "--set", "s=" + "7" * 3000]
    rc, out, err = run_cli(args, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot print the result") and err.count("\n") == 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="Python without an integer digit limit"
)
def test_emit_integer_past_the_digit_limit_is_a_short_usage_error(capsys):
    """An integer Python will not read names the variable and digit count, not the digits."""
    rc, out, err = run_cli(["emit", "--matrix", "kr", "--set", "s=" + "7" * 5000], capsys)
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.startswith("error: binding s has a 5000-digit integer")


_LONG = 5000
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "args, start",
    [
        (["emit", "--matrix", "kr", "--set", "s=" + "x" * _LONG], "error: binding 's=xxxxx"),
        (["emit", "--matrix", "kr", "--set", "s=1." + "7" * _LONG], "error: binding 's=1.777"),
        (["emit", "--matrix", "kr", "--set", "q" * _LONG + "=1"], "error: bad --set binding 'qqq"),
        (["verify", "--spins", "x" * _LONG], "error: bad spin 'xxx"),
        (["solve-phi", "--pairs", "7" * _LONG], "error: bad --pairs entry '777"),
        (
            ["verify", "--spins", "1/" + "7" * _LONG],
            "error: spin has a 5000-digit integer, past Python's"
            if _DIGIT_LIMIT
            else "error: unsupported spin 1/777",
        ),
    ],
    ids=["set-value", "set-decimal", "set-name", "spin", "pairs", "spin-digits"],
)
def test_usage_error_quotes_long_input_cut(args, start, capsys):
    """User text past 40 characters is quoted cut, with its length named."""
    rc, out, err = run_cli(args, capsys)
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.startswith(start)


def test_spin_refuses_exponent_notation(capsys):
    """1e5000 is refused before Fraction builds 10**5000, which str() cannot print."""
    rc, out, err = run_cli(["verify", "--spins", "1e5000"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: spin '1e5000' must be an exact rational like 1/2\n"


def test_emit_repeated_set_binding(capsys):
    """A variable bound twice is a usage error, not a silent override."""
    args = ["emit", "--matrix", "sjr", "--format", "csv", "--set", "xi=1", "--set", "xi=0"]
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: repeated --set binding xi\n"


@pytest.mark.parametrize("name", ["kr", "transformed"])
def test_emit_at_a_pole_is_usage_error(name, capsys):
    """s = 0 is a pole of both matrices: exit 2 with a message, no traceback."""
    rc, out, err = run_cli(["emit", "--matrix", name, "--set", "s=0"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "s=0" in err


def test_unknown_flag_rejected(capsys):
    rc = main(["verify", "--bogus"])
    capsys.readouterr()
    assert rc == 2


def test_verify_suites_exit_zero(capsys):
    for suite in SUITES:
        rc, out, _ = run_cli(["verify", "--suite", suite], capsys)
        assert rc == 0, suite
        assert "FAIL" not in out


def test_verify_suite_choices_come_from_the_registry():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all", *SUITES)


def test_verify_all_is_each_suite_once_in_registry_order(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "all", "--json"], capsys)
    assert rc == 0
    parts = []
    for suite in SUITES:
        rc, one, _ = run_cli(["verify", "--suite", suite, "--json"], capsys)
        assert rc == 0, suite
        parts += json.loads(one)
    assert json.loads(out) == parts


def test_verify_all_verifies_one_module_per_spin(monkeypatch, capsys):
    """Every suite shares the one verified module per spin that irrep builds."""
    verified = []
    verify = Representation.verify
    monkeypatch.setattr(Representation, "verify", lambda r: verified.append(r.spin) or verify(r))
    irrep.cache_clear()
    rc, _, _ = run_cli(["verify", "--suite", "all", "--json"], capsys)
    assert rc == 0
    assert sorted(verified) == [Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize(
    "args",
    [["--suite", "all"], ["--suite", "frt", "--spins", "1/2,1,3/2,2"]],
)
def test_verify_check_names_are_unique(args, capsys):
    rc, out, _ = run_cli(["verify", *args, "--json"], capsys)
    assert rc == 0
    pairs = [(s["suite"], c["name"]) for s in json.loads(out) for c in s["checks"]]
    assert len(pairs) == len(set(pairs))


def test_verify_json_shape(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "triangular", "--json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "triangularity"
    assert all({"name", "pass", "residual_summary"} <= set(c) for c in payload[0]["checks"])


def test_verify_json_carries_check_data(capsys):
    from qosp.report import Check, Report

    rep = Report("r")
    rep.add(Check("c", False, "first failing xi order 2", data={"first_failing_order": 2}))
    assert rep.to_json()["checks"][0]["data"] == {"first_failing_order": 2}
    rc, out, _ = run_cli(["verify", "--suite", "ybe", "--json"], capsys)
    assert rc == 0
    checks = json.loads(out)[0]["checks"]
    assert [c["data"] for c in checks] == [{"nonzero": []}] * 3


def test_verify_deterministic(capsys):
    rc1, out1, _ = run_cli(["verify", "--suite", "frt", "--spins", "1/2"], capsys)
    rc2, out2, _ = run_cli(["verify", "--suite", "frt", "--spins", "1/2"], capsys)
    assert (rc1, out1) == (rc2, out2)


def test_verify_all_builds_each_matrix_once(capsys):
    builders = (kr_rmatrix, transform_r, contract_r, f_jordanian_fund, f_super_fund)
    for build in builders:
        build.cache_clear()
    rc1, out1, _ = run_cli(["verify", "--suite", "all", "--json"], capsys)
    assert [b.cache_info().misses for b in builders] == [1] * len(builders)
    rc2, out2, _ = run_cli(["verify", "--suite", "all", "--json"], capsys)
    assert [b.cache_info().misses for b in builders] == [1] * len(builders)
    assert rc1 == rc2 == 0
    assert out1 == out2
    # nothing a run does may alter the shared matrices
    for name in FIXTURE_NAMES:
        assert named_matrix(name) == load_fixture(name)


def test_intertwine_suite_fails_a_twist_at_the_wrong_xi_power(monkeypatch):
    """The f1 check compares the twist builder with the paper's
    exp(-2 xi v+ (x) v+), formed directly, so an exponent one xi power too
    high fails it.  The cached fs builder is cleared before and after, so it
    neither hides the fault nor keeps the faulty matrix."""
    exponent = phi_mod.exponent_from_bilinear
    monkeypatch.setattr(
        phi_mod, "exponent_from_bilinear", lambda *args: exponent(*args).scale(xi_var())
    )
    f_super_fund.cache_clear()
    try:
        reports = {rep.name: rep for rep in SUITES["intertwine"]([])}
    finally:
        f_super_fund.cache_clear()
    check = reports["odd twist matrix from f1"].checks[0]
    assert check.name == "f1 alone reconstructs the odd twist matrix"
    assert not check.passed


def _assert_order_rejected(order, capsys):
    rc, out, err = run_cli(["verify", "--suite", "intertwine", "--order", order], capsys)
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == "qosp: error: unrecognized arguments: --order %s" % order
    assert "Traceback" not in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_verify_order_must_be_positive(order, capsys):
    """A non-positive --order still exits 2 without a traceback, now because
    verify takes no --order at all."""
    _assert_order_rejected(order, capsys)


def test_verify_has_no_order_option(capsys):
    """The intertwining check is exact, so verify takes no xi order: argparse
    rejects even a positive --order as an unrecognized argument."""
    _assert_order_rejected("3", capsys)


def test_solve_phi_repeated_pair(capsys):
    rc, out, err = run_cli(["solve-phi", "--pairs", "1:1,1:1"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: repeated module pair 1:1\n"


def test_verify_repeated_spin(capsys):
    """Spins are compared after parsing: 1/2 and 0.5 are the same spin."""
    rc, out, err = run_cli(["verify", "--suite", "frt", "--spins", "1/2,0.5"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: repeated spin 1/2\n"


def test_solve_phi_empty_pairs(capsys):
    """An empty --pairs is bad input, not a request for the default pairs."""
    rc, out, err = run_cli(["solve-phi", "--pairs", ""], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: bad --pairs entry ''")


@pytest.mark.parametrize(
    "args",
    [
        ["emit", "--matrix", "kr"],
        ["verify", "--suite", "ybe"],
        ["solve-phi", "--order", "1"],
    ],
)
def test_unwritable_out_is_usage_error(args, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    rc, out, err = run_cli([*args, "--out", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % path)


def test_solve_phi_output(tmp_path, capsys):
    out_file = tmp_path / "phi.json"
    rc = main(["solve-phi", "--order", "2", "--pairs", "1:1/2,1:1", "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["order"] == 2
    assert payload["bilinear"]["0,0"] == "1"
    assert payload["bilinear"]["1,1"] == "1/6"  # 1/4 from f1 x f1, -1/12 correction
    assert payload["report"]["checks"]


def test_solve_phi_bad_pairs(capsys):
    rc, _, err = run_cli(["solve-phi", "--pairs", "nonsense"], capsys)
    assert rc == 2


@pytest.mark.parametrize("order", ["0", "5", "-1"])
def test_solve_phi_order_out_of_range(order, capsys):
    rc, out, err = run_cli(["solve-phi", "--order", order], capsys)
    assert rc == 2
    assert out == ""
    assert "error:" in err and "--order" in err


@pytest.mark.parametrize(
    "args",
    [
        (["solve-phi", "--pairs", "7/3:1"], "7/3"),
        (["verify", "--suite", "frt", "--spins", "1/2,7/3"], "7/3"),
        (["emit", "--rep", "7/3"], "7/3"),
        (["verify", "--suite", "frt", "--spins", "1/2,5/2"], "5/2"),
    ],
)
def test_unsupported_spin_is_usage_error(args, capsys):
    """A spin off the command line's list is refused, 5/2 too, which irrep builds."""
    argv, spin = args
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and spin in err


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{",
        '{"dim": 1}',
        pytest.param(
            json.dumps({"dim": 100000, "parities": [2] * 100000, "entries": []}),
            id="100000-bad-parities",
        ),
        pytest.param(
            json.dumps({"dim": 1, "parities": [0], "entries": [[1, 1, "x" * 100000]]}),
            id="100000-character-entry",
        ),
    ],
)
def test_bad_fixture_is_usage_error(content, tmp_path, monkeypatch, capsys):
    """A missing or unreadable fixture is bad input, not a failed check.

    The error is one line of under 300 bytes, however long the fixture's
    bad text, and names the fixture path whole, once.
    """
    import qosp.matrices as mats

    for name in mats.FIXTURE_NAMES:
        write_fixture(name, mats.named_matrix(name), directory=str(tmp_path))
    monkeypatch.setenv("QOSP_FIXTURES", str(tmp_path))
    # a passing run first: the fixtures must be read again on every run
    assert run_cli(["verify", "--suite", "all"], capsys)[0] == 0
    path = tmp_path / "sjr.json"
    if content is None:
        path.unlink()
    else:
        path.write_text(content)
    rc, out, err = run_cli(["verify", "--suite", "all"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count(str(path)) == 1
    assert err.count("\n") == 1 and len(err.encode()) < 300


def test_verify_exit_one_on_failure(tmp_path, monkeypatch, capsys):
    """A corrupted golden fixture must drive the all-suite to exit 1."""
    import json as _json

    import qosp.matrices as mats

    for name in mats.FIXTURE_NAMES:
        write_fixture(name, mats.named_matrix(name), directory=str(tmp_path))
    bad = _json.loads((tmp_path / "sjr.json").read_text())
    bad["entries"][0][2] = "7"
    (tmp_path / "sjr.json").write_text(_json.dumps(bad))
    monkeypatch.setenv("QOSP_FIXTURES", str(tmp_path))
    rc, out, _ = run_cli(["verify", "--suite", "all"], capsys)
    assert rc == 1
    assert "FAIL" in out
    # the JSON report names the corrupted entry with built minus fixture
    rc, out, _ = run_cli(["verify", "--suite", "all", "--json"], capsys)
    assert rc == 1
    checks = {c["name"]: c for suite in json.loads(out) for c in suite["checks"]}
    i, j, _ = bad["entries"][0]
    diff = mats.named_matrix("sjr")[i - 1, j - 1] - parse_scalar("7")
    assert checks["golden sjr"]["residual_summary"] == "residual has 1 nonzero entries"
    assert checks["golden sjr"]["data"] == {"nonzero": [[i, j, format_scalar(diff)]]}


def test_fixture_with_other_parities_fails(tmp_path, monkeypatch, capsys):
    """A fixture whose parities differ is a failed check, not a MatrixError."""
    for name in FIXTURE_NAMES:
        write_fixture(name, named_matrix(name), directory=str(tmp_path))
    path = tmp_path / "sjr.json"
    flipped = json.loads(path.read_text())
    flipped["parities"] = [1 - p for p in flipped["parities"]]
    path.write_text(json.dumps(flipped))
    monkeypatch.setenv("QOSP_FIXTURES", str(tmp_path))
    rc, out, err = run_cli(["verify", "--suite", "matrix"], capsys)
    assert rc == 1 and err == ""
    [line] = [line for line in out.splitlines() if "golden sjr" in line]
    assert line.endswith(" FAIL    (parities differ from fixture)")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qosp.cli", "verify", "--suite", "triangular"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def _child_env(**extra):
    """The environment of a child python that imports qosp from this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every CLI start pays for its imports; dataclasses alone pulls in inspect, ast and dis."""
    code = "import sys, qosp.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "all"],
        ["emit", "--matrix", "kr"],
        ["solve-phi", "--order", "1"],
    ],
)
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_standard_output_is_usage_error(args, unbuffered):
    """A failed write to standard output exits 2 with one error line, no traceback.

    Buffered, a short output fails only at the flush and stays in the buffer, so the
    flush at interpreter exit must not fail again; unbuffered, the write itself fails.
    """
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qosp.cli", *args],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "args, code",
    [
        (["solve-phi", "--order", "1"], 0),
        (["verify", "--spins", "7"], 2),
        (["emit", "--matrix", "kr", "--set", "s=1e5000"], 2),
        (["bogus"], 2),
    ],
)
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_standard_error_keeps_the_exit_code(args, code, unbuffered):
    """A failed write to standard error is ignored, as argparse ignores it: the exit
    code stays the one the checks or the usage error give, 0 or 2, never 1 or 120."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qosp.cli", *args],
            stdout=subprocess.DEVNULL, stderr=full, env=env,
        )
    assert proc.returncode == code


def _fixture_copy(tmp_path, name):
    """Write the five fixtures into tmp_path; the path of the one named name."""
    for fixture in FIXTURE_NAMES:
        write_fixture(fixture, named_matrix(fixture), directory=str(tmp_path))
    return tmp_path / (name + ".json")


def _assert_bad_fixture(path):
    """qosp verify --suite matrix on path's directory exits 2 with one error line naming path."""
    proc = subprocess.run(
        [sys.executable, "-m", "qosp.cli", "verify", "--suite", "matrix"],
        capture_output=True, text=True, env=_child_env(QOSP_FIXTURES=str(path.parent)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot load golden fixture %s: " % path)
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


def test_fixture_with_a_non_unit_denominator_is_usage_error(tmp_path):
    """Scalars are Laurent polynomials in s: an entry over 1*s - 1 is a bad fixture."""
    path = _fixture_copy(tmp_path, "kr")
    kr = json.loads(path.read_text())
    kr["entries"][0][2] = "(1) / (1*s - 1)"
    path.write_text(json.dumps(kr))
    _assert_bad_fixture(path)


@pytest.mark.parametrize("name", ["fj", "sjr"])
def test_fixture_entry_in_another_spelling_is_usage_error(name, tmp_path):
    """A fixture is read in format_scalar's spelling alone: xi for 1*xi is a bad fixture."""
    path = _fixture_copy(tmp_path, name)
    matrix = json.loads(path.read_text())
    entry = next(entry for entry in matrix["entries"] if entry[2] == "1*xi")
    entry[2] = "xi"
    path.write_text(json.dumps(matrix))
    _assert_bad_fixture(path)


def test_deeply_nested_fixture_is_usage_error(tmp_path):
    """json.load raises RecursionError on a deeply nested file; that is a bad fixture too."""
    path = _fixture_copy(tmp_path, "kr")
    path.write_text("[" * 200000 + "]" * 200000)
    _assert_bad_fixture(path)


def _recorded_scalar_texts():
    """Every scalar text of the five fixtures and of the recorded JSON and CSV outputs."""
    texts = []
    for name in FIXTURE_NAMES:
        with open(fixture_path(name)) as fh:
            texts += [text for _, _, text in json.load(fh)["entries"]]
    for name in ("emit_rep2", "emit_rep1_xi_half"):
        matrices = json.loads((RECORDED / (name + ".stdout")).read_text())["matrices"]
        texts += [text for m in matrices.values() for _, _, text in m["entries"]]
    csv = (RECORDED / "emit_sjr_csv_xi_third.stdout").read_text()
    texts += [cell.strip('"') for line in csv.splitlines() for cell in line.split(",")]
    for suite in json.loads((RECORDED / "verify_all_json.stdout").read_text()):
        for check in suite["checks"]:
            data = check["data"] or {}
            texts += [text for _, _, text in data.get("nonzero", [])]
            texts += [data["coefficient"]] if data.get("coefficient") else []
    return texts


def test_recorded_scalar_texts_parse_and_format_back():
    texts = _recorded_scalar_texts()
    assert len(texts) > 300 and any(") / (" in text for text in texts)
    for text in texts:
        assert format_scalar(parse_scalar(text)) == text


def test_every_kernel_entry_has_exact_nonzero_coefficients(capsys):
    """After the verify workloads, every coefficient of a cached module element or
    named matrix is a nonzero int or Fraction, never a float, a bool or zero."""
    assert run_cli(["verify", "--suite", "all", "--json"], capsys)[0] == 0
    assert run_cli(["verify", "--suite", "frt", "--spins", "1/2,1,3/2,2"], capsys)[0] == 0
    matrices = [kr_rmatrix(), transform_r(), contract_r(), f_super_fund()]
    for spin in SUPPORTED_SPINS:
        rep = irrep(spin)
        matrices += [rep.h, rep.v_plus, rep.v_minus, *rep._cache.values()]
    entries = [v for m in matrices for _, _, v in m.entries()]
    assert len(matrices) > 50 and len(entries) > 1000
    assert all(exact_coefficients(v) for v in entries)

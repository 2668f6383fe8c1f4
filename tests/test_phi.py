"""The odd twist series: closed-form leading term, solver, the twisted Delta(v-)."""

import ast
import gc
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosp import cli
from qosp import gmatrix as gmatrix_mod
from qosp import phi as phi_mod
from qosp import scalar as sc
from qosp.coproducts import CLASSICAL, JORDANIAN, SUPER_JORDANIAN, check_twist_produces, f_jordanian
from qosp.gmatrix import GradedMatrix, exp_nilpotent, gkron, inverse
from qosp.matrices import f_super_fund
from qosp.phi import (
    build_f_super,
    check_intertwining_s,
    exponent_from_bilinear,
    f1_series_coeffs,
    f1_table,
    rank_one_terms,
    solve_phi,
)
from qosp.reps import Representation, RepresentationError, fundamental_rep, irrep
from phi_oracle import closed_form_table, solve_without_f1, split_twist
from xi_oracle import assert_canonical, drop_xi_above, xi_coefficient


@pytest.fixture(scope="module")
def fund():
    return fundamental_rep()


@pytest.fixture(scope="module")
def spin1():
    return irrep(1)


def test_f1_series():
    # 2/(1 + sqrt(1+2u)) = 1 - u/2 + u^2/2 - 5u^3/8 + 7u^4/8 - ...
    assert f1_series_coeffs(4) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(-5, 8),
        Fraction(7, 8),
    ]


def test_f1_reconstructs_odd_twist(fund):
    table = f1_table()
    assert build_f_super(table, fund, fund) == f_super_fund()


def test_intertwining_exact_on_fundamental(fund):
    table = f1_table()
    rep = check_intertwining_s(table, fund, fund)
    assert rep.passed
    assert rep.name == "odd-twist intertwining (1/2, 1/2), exact"


SPINS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def test_exponent_from_bilinear_matches_repeated_products():
    """-2 xi^(m+n+1) (v+ X+^m) (x) (v+ X+^n), with X+^m built by repeated products."""
    r1, r2 = irrep(Fraction(3, 2)), irrep(1)

    def v_x_power(r, m):
        mat = r.v_plus
        for _ in range(m):
            mat = mat * r.image("X+")
        return mat

    for m in range(4):
        for n in range(4):
            want = gkron(v_x_power(r1, m), v_x_power(r2, n))
            want = want.scale(sc.xi_var(m + n + 1).scale(-2))
            assert exponent_from_bilinear({(m, n): 1}, r1, r2) == want, (m, n)


def test_coproduct_tables_match_hand_written_formulas():
    """The tables the solver evaluates equal the paper's formulas, written out.

    Dj(v+) = v+ (x) E + 1 (x) v+,  Dsj(v+) = v+ (x) 1 + E (x) v+ and
    Dj(v-) = v- (x) E^-1 + 1 (x) v- + xi h (x) v+ E^-2, E = exp(sigma).
    """
    xi = sc.xi_var()
    for a in SPINS:
        for b in SPINS:
            r1, r2 = irrep(a), irrep(b)
            dj_vplus = gkron(r1.v_plus, r2.image("E^1")) + gkron(r1.identity, r2.v_plus)
            dsj_vplus = gkron(r1.v_plus, r2.identity) + gkron(r1.image("E^1"), r2.v_plus)
            dj_vminus = (
                gkron(r1.v_minus, r2.image("E^-1"))
                + gkron(r1.identity, r2.v_minus)
                + gkron(r1.h, r2.v_plus * r2.image("E^-2")).scale(xi)
            )
            assert JORDANIAN.module(r1, r2).image("v+") == dj_vplus, (a, b)
            assert SUPER_JORDANIAN.module(r1, r2).image("v+") == dsj_vplus, (a, b)
            assert JORDANIAN.module(r1, r2).image("v-") == dj_vminus, (a, b)


def test_solver_reads_the_coproduct_table(monkeypatch, fund, spin1):
    """Dropping 1 (x) v+ from the JORDANIAN v+ rule reaches the solver and its check."""
    table = f1_table()
    assert check_intertwining_s(table, fund, fund).passed
    _, rep = solve_phi(2, [(spin1, spin1)])
    assert rep.passed

    monkeypatch.setitem(JORDANIAN.rules, "v+", JORDANIAN.rules["v+"][:1])
    bad = check_intertwining_s(table, fund, fund)
    assert bad.checks[0].data["first_failing_order"] == 0
    _, rep = solve_phi(2, [(spin1, spin1)])
    assert not rep.passed


def test_f1_only_fails_on_spin_one_at_order_three(spin1):
    rep = check_intertwining_s(f1_table(), spin1, spin1)
    assert not rep.passed
    assert rep.checks[0].data["first_failing_order"] == 3
    assert rep.checks[1].data["first_failing_order"] == 3


def test_solve_order_one_recovers_f1(fund, spin1):
    table, passed = solve_without_f1(1, fund, fund)
    assert passed
    assert table.get((0, 0), 0) == Fraction(1)
    # deeper shells on a pair that can see them reproduce f1 x f1 off-diagonals
    table2, passed2 = solve_without_f1(2, spin1, spin1)
    assert passed2
    coeffs = f1_series_coeffs(1)
    assert table2.get((0, 0), 0) == coeffs[0] * coeffs[0]
    assert table2.get((0, 1), 0) == coeffs[0] * coeffs[1]
    assert table2.get((1, 1), 0) == coeffs[1] * coeffs[1] + Fraction(-1, 12)


def test_solve_order_two_acceptance_pairs(fund, spin1):
    table, rep = solve_phi(2, [(spin1, fund), (spin1, spin1)])
    assert rep.passed
    # the pair with a fundamental leg cannot see the correction; the
    # spin-one pair determines it uniquely
    correction = table.get((1, 1), 0) - Fraction(1, 4)  # subtract the f1 x f1 part
    assert correction == Fraction(-1, 12)


def test_solve_order_two_cross_pair_universality(spin1):
    r32 = irrep(Fraction(3, 2))
    table, rep = solve_phi(2, [(spin1, spin1), (r32, spin1), (r32, r32)])
    assert rep.passed
    assert table.get((1, 1), 0) - Fraction(1, 4) == Fraction(-1, 12)


def test_solved_series_term_structure(spin1):
    table, rep = solve_phi(2, [(spin1, spin1)])
    assert rep.passed
    # term k starts at u**(k-1) on both legs
    for k, (left, right) in enumerate(rank_one_terms(table), start=1):
        assert min(left) == k - 1
        assert min(right) == k - 1


# every solve of this module, as (order, spin pairs, f_1 known); a solve
# without f_1 known is solve_without_f1 on its one pair
_SOLVES = [
    (1, [(Fraction(1, 2), Fraction(1, 2))], False),
    (2, [(1, 1)], False),
    (2, [(1, Fraction(1, 2)), (1, 1)], True),
    (2, [(1, 1), (Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True),
    (2, [(Fraction(1, 2), Fraction(1, 2))], False),
    (3, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True),
    (4, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True),
]


@pytest.mark.parametrize("order, spins, f1_known", _SOLVES)
def test_rank_one_terms_sum_back_to_the_solved_table(order, spins, f1_known):
    pairs = [(irrep(a), irrep(b)) for a, b in spins]
    if f1_known:
        table, rep = solve_phi(order, pairs)
        passed = rep.passed
    else:
        (pair,) = pairs
        table, passed = solve_without_f1(order, *pair)
    assert passed
    terms = rank_one_terms(table)
    total = {}
    for k, (left, right) in enumerate(terms, start=1):
        assert min(left) == min(right) == k - 1
        for m, a in left.items():
            for n, b in right.items():
                total[m, n] = total.get((m, n), 0) + a * b
    assert {key: c for key, c in total.items() if c} == table


def test_rank_one_terms_subtracts_at_fill_in_entries():
    """The first term's square has a (1, 1) entry the table lacks; the
    second term must take it away rather than skip the missing entry."""
    half = Fraction(1, 2)
    terms = rank_one_terms({(0, 0): Fraction(1), (0, 1): -half, (1, 0): -half})
    assert len(terms) == 2
    assert terms[1] == ({1: Fraction(1)}, {1: Fraction(-1, 4)})


def test_rank_one_terms_rejects_an_asymmetric_table():
    with pytest.raises(ValueError, match="not symmetric"):
        rank_one_terms({(0, 1): 1})


def test_solve_phi_rejects_repeated_pair(fund, spin1):
    with pytest.raises(ValueError, match="repeated module pair 1:1"):
        solve_phi(1, [(spin1, spin1), (fund, spin1), (irrep(1), irrep(1))])


def test_solve_phi_rejects_order_zero(spin1):
    """Order 0 has no shell to solve and would check through xi^-1 only."""
    with pytest.raises(ValueError, match="series order must be 1 or more"):
        solve_phi(0, [(spin1, spin1)])


def test_solve_phi_rejects_no_pairs():
    """With no pair there is nothing to solve or check, so no report passes."""
    for order in (1, 2):
        with pytest.raises(ValueError, match="no module pair"):
            solve_phi(order, [])


def test_solver_reports_inconsistency(spin1):
    """A deliberately corrupted known part makes the shells unsolvable.

    Poisoning the (0,1) coefficient of the f1 x f1 part asymmetrically
    leaves no value of the shell-2 unknown that can cancel the xi^3
    residual, and the report must say so rather than average it away.
    """
    from qosp.phi import solve_linear_system

    bad_known = f1_table(2)
    bad_known[(0, 1)] += Fraction(1, 3)  # break the symmetry of the known part
    pair = phi_mod._PairSeries(spin1, spin1)
    f = build_f_super(bad_known, spin1, spin1)
    rows, rhs = pair.shell_equations(f, [(1, 1)])
    solution, free, inconsistent = solve_linear_system(rows, rhs, ncols=1)
    assert inconsistent


def test_solve_phi_stops_at_an_inconsistent_shell(monkeypatch, capsys, spin1):
    """A poisoned f_1 part makes shell 2 unsolvable inside solve_phi on (3/2, 1):
    the pair check names it and no later shell, the report fails and the CLI
    exits 1.  The poison keeps the table symmetric, so the CLI can still split
    it into rank-one terms."""
    unpoisoned = phi_mod.f1_table

    def poisoned(u_order):
        table = unpoisoned(u_order)
        for key in ((0, 1), (1, 0)):  # D[0, 1] as in test_solver_reports_inconsistency
            table[key] += Fraction(1, 3)
        return table

    monkeypatch.setattr(phi_mod, "f1_table", poisoned)
    _, rep = solve_phi(3, [(irrep(Fraction(3, 2)), spin1)])
    solve = rep.checks[0]
    assert solve.name == "pair (3/2, 1) solve"
    assert not solve.passed
    assert solve.detail.startswith("shell 2 inconsistent [")
    assert solve.detail.endswith("] -> {}")
    assert "shell 3" not in solve.detail and "shell 4" not in solve.detail
    assert not rep.passed
    assert cli.main(["solve-phi", "--order", "3", "--pairs", "3/2:1"]) == 1
    assert "(shell 2 inconsistent [" in capsys.readouterr().err


def test_cross_pair_disagreement_fails(monkeypatch, spin1):
    """A second pair that finds another D[1, 1] fails the cross-pair check; the
    table keeps the first pair's value and both pairs are listed."""
    r32 = irrep(Fraction(3, 2))
    shell_equations = phi_mod._PairSeries.shell_equations

    def shifted(pair, f, shell):
        rows, rhs = shell_equations(pair, f, shell)
        if pair.reps[0] is r32:  # the solution moves by 1 in the first unknown
            rhs = [b + row[0] for row, b in zip(rows, rhs)]
        return rows, rhs

    monkeypatch.setattr(phi_mod._PairSeries, "shell_equations", shifted)
    table, rep = solve_phi(2, [(spin1, spin1), (r32, spin1)])
    by_name = {c.name: c for c in rep.checks}
    assert by_name["pair (1, 1) solve"].data["solved"] == {"(1, 1)": "-1/12"}
    assert by_name["pair (3/2, 1) solve"].data["solved"] == {"(1, 1)": "11/12"}
    cross = by_name["cross-pair consistency"]
    assert not cross.passed
    assert cross.data["solved"] == {"(1, 1)": "-1/12"}
    assert cross.data["determined_by"] == {"(1, 1)": [["1", "1"], ["3/2", "1"]]}
    assert table[1, 1] == Fraction(1, 4) - Fraction(1, 12)
    assert not rep.passed


@pytest.mark.parametrize(
    "rows, rhs, ncols, expected",
    [
        ([[1, 1]], [1], 2, ({}, [1], [])),
        ([[1, 0, 0], [0, 1, 1]], [2, 3], 3, ({0: Fraction(2)}, [2], [])),
    ],
    ids=["1x2", "2x3"],
)
def test_solve_linear_system_drops_pivots_on_free_columns(rows, rhs, ncols, expected):
    """A pivot column whose row also holds a free column has no value of its own."""
    assert phi_mod.solve_linear_system(rows, rhs, ncols) == expected


def _finite_difference_shell_equations(known_bilinear, shell, r1, r2, order):
    """Reference shell system: unit-step differences of the full residual.

    Every column re-evaluates the truncated exponential of the whole
    series with one unknown raised by 1.  The residual is affine in the
    unknowns, so the unit step is exact.
    """
    dj = JORDANIAN.module(r1, r2).image("v+")
    target = SUPER_JORDANIAN.module(r1, r2).image("v+")

    def residual_with(extra):
        bil = dict(known_bilinear)
        for (m, n), val in extra.items():
            bil[(m, n)] = bil.get((m, n), Fraction(0)) + val
            if m != n:
                bil[(n, m)] = bil.get((n, m), Fraction(0)) + val
        t = drop_xi_above(exponent_from_bilinear(bil, r1, r2), order)
        f = drop_xi_above(exp_nilpotent(t), order)
        return xi_coefficient((f * dj) - (target * f), order)

    base = residual_with({})
    columns = [residual_with({key: Fraction(1)}) - base for key in shell]
    positions = sorted({(i, j) for m in (base, *columns) for i, j, _ in m.entries()})
    rows = [[col[i, j].as_fraction() for col in columns] for i, j in positions]
    rhs = [-base[i, j].as_fraction() for i, j in positions]
    return rows, rhs


def _record_shells(monkeypatch, solve):
    """Run solve() and record every shell system and every pair solve.

    A shell record holds the pair, the shell, its matched order, the
    twist f it read, its rows and rhs, the exp_nilpotent calls it made
    (the only exponential phi.py takes) and, once its pair's solve has
    returned, the table as the solver has it at that shell: the known
    table plus every value found below the shell.  A solve record holds
    the pair, its known table, the values it found and the exponent of
    every exp_nilpotent call it made.  solve returns whether the
    solve passed."""
    calls, solves, exps = [], [], []
    shell_equations = phi_mod._PairSeries.shell_equations
    pair_solve = phi_mod._PairSeries.solve
    exp_nilpotent = phi_mod.exp_nilpotent

    def counting_exp_nilpotent(n):
        exps.append(n)
        return exp_nilpotent(n)

    def recording(pair, f, shell):
        start = len(exps)
        rows, rhs = shell_equations(pair, f, shell)
        calls.append({"reps": pair.reps, "shell": list(shell), "order": sum(shell[0]) + 1, "f": f,
                      "rows": rows, "rhs": rhs, "exps": exps[start:]})
        return rows, rhs

    def recording_solve(pair, known, shells):
        first, start = len(calls), len(exps)
        result = pair_solve(pair, known, shells)
        found = result[0]
        for call in calls[first:]:
            call["table"] = dict(known)
            for key, val in found.items():
                if sum(key) < sum(call["shell"][0]):
                    phi_mod._add_symmetric(call["table"], key, val)
        solves.append({"reps": pair.reps, "known": dict(known), "found": found, "exps": exps[start:]})
        return result

    monkeypatch.setattr(phi_mod, "exp_nilpotent", counting_exp_nilpotent)
    monkeypatch.setattr(phi_mod._PairSeries, "shell_equations", recording)
    monkeypatch.setattr(phi_mod._PairSeries, "solve", recording_solve)
    assert solve()
    return calls, solves


def _run_solver(monkeypatch, order, spins, f1_known):
    """_record_shells of solve_phi on the pairs, or of solve_without_f1 on the one pair."""
    pairs = [(irrep(a), irrep(b)) for a, b in spins]
    if f1_known:
        return _record_shells(monkeypatch, lambda: solve_phi(order, pairs)[1].passed)
    return _record_shells(monkeypatch, lambda: solve_without_f1(order, *pairs[0])[1])


@pytest.mark.parametrize(
    "order, spins, f1_known, nshells",
    [
        (4, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True, 10),
        (2, [(Fraction(1, 2), Fraction(1, 2))], False, 3),
    ],
)
def test_shell_equations_match_finite_differences(
    monkeypatch, order, spins, f1_known, nshells
):
    """The solver's rows are the reference's distinct equations, each at its
    first row-major occurrence; the reference repeats some of them."""
    calls, _ = _run_solver(monkeypatch, order, spins, f1_known)
    assert len(calls) == nshells
    repeats = 0
    for call in calls:
        r1, r2 = call["reps"]
        rows, rhs = _finite_difference_shell_equations(call["table"], call["shell"], r1, r2, call["order"])
        distinct = _distinct_equations(rows, rhs)
        repeats += len(rows) - len(distinct[0])
        assert (call["rows"], call["rhs"]) == distinct, (call["shell"], r1.spin, r2.spin)
    assert repeats


def _distinct_equations(rows, rhs):
    """rows and rhs with each repeated equation kept once, at its first occurrence."""
    equations = dict.fromkeys((*row, b) for row, b in zip(rows, rhs))
    return [list(eq[:-1]) for eq in equations], [eq[-1] for eq in equations]


def test_no_shell_system_repeats_an_equation(monkeypatch):
    """solve_phi(4) on (3/2, 1), (3/2, 3/2) writes each distinct equation of
    each shell once: 10 rows in all over its 10 shell systems."""
    r32 = irrep(Fraction(3, 2))
    calls, _ = _record_shells(monkeypatch, lambda: solve_phi(4, [(r32, irrep(1)), (r32, r32)])[1].passed)
    assert len(calls) == 10
    for call in calls:
        equations = [(*row, b) for row, b in zip(call["rows"], call["rhs"])]
        assert len(set(equations)) == len(equations), call["shell"]
    assert sum(len(call["rows"]) for call in calls) == 10


@pytest.mark.parametrize(
    "order, spins, f1_known, nshells",
    [
        (4, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True, 10),
        (4, [(1, Fraction(1, 2)), (1, 1), (2, Fraction(3, 2))], True, 15),
        (2, [(Fraction(1, 2), Fraction(1, 2))], False, 3),
    ],
)
def test_grown_twist_equals_a_fresh_one(monkeypatch, order, spins, f1_known, nshells):
    """At every shell the twist the solver grew by multiplying in each solved
    shell equals the exact fresh twist of the known table plus every value
    found below the shell, at every xi power: the unit exponents commute."""
    calls, _ = _run_solver(monkeypatch, order, spins, f1_known)
    assert len(calls) == nshells
    for call in calls:
        fresh = build_f_super(call["table"], *call["reps"])
        assert call["f"] == fresh, (call["shell"], *(r.spin for r in call["reps"]))


def test_shell_equations_form_no_exponential(monkeypatch):
    """Each pair's solve takes one exact exponential of the known table, then
    one of each shell that solved a nonzero value; its shell equations take
    none."""
    r32 = irrep(Fraction(3, 2))
    pairs = [(r32, irrep(1)), (r32, r32)]
    calls, solves = _record_shells(monkeypatch, lambda: solve_phi(4, pairs)[1].passed)
    assert len(calls) == 10
    assert [call["exps"] for call in calls] == [[]] * 10
    assert len(solves) == 2
    for solve in solves:
        steps = {}
        for key, val in solve["found"].items():
            if val:
                phi_mod._add_symmetric(steps.setdefault(sum(key), {}), key, val)
        tables = [solve["known"]] + [steps[t] for t in sorted(steps)]
        expected = [exponent_from_bilinear(table, *solve["reps"]) for table in tables]
        assert solve["exps"] == expected
    assert [len(solve["exps"]) for solve in solves] == [3, 4]


def test_solver_evidence_in_check_data(spin1):
    r32 = irrep(Fraction(3, 2))
    _, rep = solve_phi(4, [(r32, spin1), (r32, r32)])
    by_name = {c.name: c.data for c in rep.checks}
    assert by_name["cross-pair consistency"]["determined_by"] == {
        "(1, 1)": [["3/2", "1"], ["3/2", "3/2"]],
        "(1, 2)": [["3/2", "1"], ["3/2", "3/2"]],
        "(2, 2)": [["3/2", "3/2"]],
    }
    assert by_name["pair (3/2, 1) solve"]["pinned"] == [
        "(1, 3)", "(2, 2)", "(1, 4)", "(2, 3)", "(1, 5)", "(2, 4)", "(3, 3)",
    ]
    assert by_name["pair (3/2, 3/2) solve"]["pinned"] == [
        "(1, 3)", "(1, 4)", "(2, 3)", "(1, 5)", "(2, 4)", "(3, 3)",
    ]


def test_closed_form_leading_coefficients():
    table = closed_form_table(4)
    assert table[0, 0] == 1
    assert table[1, 1] == Fraction(1, 6)
    assert table[2, 2] == Fraction(3, 40)
    assert all(table[n, m] == c for (m, n), c in table.items())


@pytest.mark.parametrize(
    "spins, determined",
    [
        ((Fraction(3, 2), 1, Fraction(3, 2), Fraction(3, 2)), 3),
        ((2, Fraction(3, 2), 2, 2), 6),
    ],
    ids=["3half-1_3half-3half", "2-3half_2-2"],
)
def test_closed_form_equals_every_determined_coefficient(spins, determined):
    """Compared with the returned table, not the cross-pair check's corrections to f_1 (x) f_1."""
    a, b, c, d = (irrep(j) for j in spins)
    table, rep = solve_phi(4, [(a, b), (c, d)])
    assert rep.passed
    closed = closed_form_table(8)
    by_name = {check.name: check.data for check in rep.checks}
    keys = [ast.literal_eval(k) for k in by_name["cross-pair consistency"]["determined_by"]]
    assert len(keys) == determined
    for key in keys:
        assert table[key] == closed[key], key


@pytest.mark.parametrize(
    "order, spins, determined",
    [(6, (3, Fraction(5, 2)), 15), (8, (4, Fraction(7, 2)), 28)],
    ids=["6-3-5half", "8-4-7half"],
)
def test_deeper_solve_past_the_command_line_limits(order, spins, determined):
    """solve_phi(order) on (j1, j2), (j1, j1) passes every check, and each
    coefficient it determines equals the closed form in the returned table:
    15 at order 6 on (3, 5/2), (3, 3), and 28 at order 8 on (4, 7/2), (4, 4),
    where the twist reaches xi^16 past the residual check's xi^15."""
    r1, r2 = (irrep(j) for j in spins)
    table, rep = solve_phi(order, [(r1, r2), (r1, r1)])
    assert rep.passed
    closed = closed_form_table(2 * order - 2)
    by_name = {check.name: check.data for check in rep.checks}
    keys = [ast.literal_eval(k) for k in by_name["cross-pair consistency"]["determined_by"]]
    assert len(keys) == determined
    for key in keys:
        assert table[key] == closed[key], key


def _closed_form_raised(*keys):
    """The closed form with each D[m, n] of keys raised by 1."""
    def table():
        raised = closed_form_table(8)
        for key in keys:
            raised[key] += 1
        return raised
    return table


@pytest.mark.parametrize(
    "spins, failing, first",
    [
        ((1, 1), f1_table, 3),
        ((Fraction(3, 2), 1), f1_table, 3),
        ((2, 2), f1_table, 3),
        ((2, Fraction(3, 2)), _closed_form_raised((1, 1)), 3),
        ((2, Fraction(3, 2)), _closed_form_raised((1, 2), (2, 1)), 4),
        ((2, 2), _closed_form_raised((2, 2)), 5),
        ((Fraction(1, 2), Fraction(1, 2)), dict, 1),
    ],
    ids=["1-1", "3half-1", "2-2", "2-3half-raised-d11", "2-3half-raised-d12", "2-2-raised-d22", "half-half-empty"],
)
def test_closed_form_intertwines_where_f1_fails(spins, failing, first, monkeypatch):
    """The closed form passes; f_1 (x) f_1, or the closed form with D[m, n]
    raised, fails both forms first at xi**(m+n+1), and the empty table,
    no twist at all, at xi**1.  Each check forms T and
    its exponential once, and reads F^2 for the second form from them."""
    calls, exps = [], []
    exponent, exp_nilpotent = phi_mod.exponent_from_bilinear, phi_mod.exp_nilpotent

    def counted(*args):
        calls.append(args)
        return exponent(*args)

    def counted_exp(*args):
        exps.append(args)
        return exp_nilpotent(*args)

    monkeypatch.setattr(phi_mod, "exponent_from_bilinear", counted)
    monkeypatch.setattr(phi_mod, "exp_nilpotent", counted_exp)
    a, b = (irrep(j) for j in spins)
    assert check_intertwining_s(closed_form_table(8), a, b).passed
    assert (len(calls), len(exps)) == (1, 1)
    rep = check_intertwining_s(failing(), a, b)
    assert [c.data["first_failing_order"] for c in rep.checks] == [first, first]
    assert (len(calls), len(exps)) == (2, 2)


def test_heavy_intertwining_check_past_the_command_line_spins():
    """The closed form through u**30 intertwines exactly on (9/2, 9/2), the
    heaviest check the odd-twist kernel is timed on."""
    r = irrep(Fraction(9, 2))
    assert check_intertwining_s(closed_form_table(30), r, r).passed


@pytest.mark.parametrize(
    "spins, top",
    [
        ((Fraction(1, 2), Fraction(1, 2)), 1),
        ((1, Fraction(1, 2)), 2),
        ((Fraction(3, 2), 1), 4),
        ((Fraction(3, 2), Fraction(3, 2)), 5),
        ((2, 2), 7),
        ((Fraction(5, 2), 2), 8),
    ],
    ids=["half-half", "1-half", "3half-1", "3half-3half", "2-2", "5half-2"],
)
def test_residual_stops_below_the_weight_bound(spins, top):
    """Each power of xi in F, Dj(v+) and Dsj(v+) raises the h weight by 2
    (xi X+, or xi v+ (x) v+ in F), and v+ raises it by 1; the weights on
    (j1, j2) span 4(j1 + j2), so F has no term above xi^(2(j1+j2)), and
    neither form of check_intertwining_s, R(F) = F Dj(v+) - Dsj(v+) F and
    Dj(v+) - Dsj(v+) F^2, has one above xi^(2(j1+j2)-1) for any table:
    the exact check sees every order.  With every closed-form coefficient
    raised by 1, F and both forms reach their bounds, exactly."""
    r1, r2 = (irrep(j) for j in spins)
    raised = {key: c + 1 for key, c in closed_form_table(14).items()}
    f = build_f_super(raised, r1, r2)
    pair = phi_mod._PairSeries(r1, r2)
    forms = [f * pair.dj - pair.target * f, pair.dj - pair.target * f * f]
    assert top == 2 * (r1.spin + r2.spin) - 1
    assert [max(key[4] for key in form.terms) for form in forms] == [top, top]
    assert max(key[4] for key in f.terms) == top + 1


def _random_table(seed):
    """A non-symmetric table of small rationals on every (m, n) below 5, zeros included."""
    rng = random.Random(seed)
    return {(m, n): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in range(5) for n in range(5)}


@pytest.mark.parametrize("spins", [(Fraction(3, 2), 1), (2, Fraction(3, 2))], ids=["3half-1", "2-3half"])
@pytest.mark.parametrize("table", ["closed", "random"])
def test_exact_twists_invert_and_add(spins, table):
    """Uncut on a pair, the twist of -D is the inverse of the twist of D,
    and F(D) F(D) = F(2D): the F^2 of check_intertwining_s's second form.
    Both hold exactly because the unit exponents commute."""
    r1, r2 = (irrep(j) for j in spins)
    d = closed_form_table(8) if table == "closed" else _random_table(41)
    f = build_f_super(d, r1, r2)
    assert not f.is_identity()
    assert (f * build_f_super({k: -c for k, c in d.items()}, r1, r2)).is_identity()
    assert f * f == build_f_super({k: 2 * c for k, c in d.items()}, r1, r2)


_SPLIT_CASES = {
    "3half-1": (Fraction(3, 2), 1),
    "2-3half": (2, Fraction(3, 2)),
    "7half-3": (Fraction(7, 2), 3),
}


@pytest.mark.parametrize(
    "spins, table",
    [(spins, table) for spins in _SPLIT_CASES.values() for table in ("random", "closed")]
    + [((Fraction(1, 2), Fraction(1, 2)), table) for table in ("empty", "one")],
    ids=["%s-%s" % (name, table) for name in _SPLIT_CASES for table in ("random", "closed")]
    + ["half-half-empty", "half-half-one"],
)
def test_twist_equals_the_split_with_no_exponential(spins, table):
    """build_f_super(D) = exp(T) equals C(theta^2) - 2 xi (v+ (x) v+) P S(theta^2),
    theta^2 = u1 u2 P^2 / 4 (phi_oracle.split_twist), exactly and for a
    non-symmetric table too; on the fundamental pair the empty table gives
    the identity and {(0, 0): 1} the paper's exp(-2 xi v+ (x) v+)."""
    r1, r2 = (irrep(j) for j in spins)
    d = {"random": _random_table(7), "closed": closed_form_table(8), "empty": {}, "one": {(0, 0): 1}}[table]
    f = build_f_super(d, r1, r2)
    assert f == split_twist(d, r1, r2)
    assert f.is_identity() == (table == "empty")


# (table, spins, passes): the twist F_s F_j with that table on that pair
_TWISTS = [
    ("f1", (Fraction(1, 2), Fraction(1, 2)), True),
    ("f1", (1, Fraction(1, 2)), True),
    ("solved", (1, 1), True),
    ("f1", (1, 1), False),
    ("solved", (Fraction(3, 2), 1), False),
]


@pytest.fixture(scope="module")
def tables(spin1):
    solved, rep = solve_phi(2, [(spin1, spin1)])
    assert rep.passed
    return {"f1": f1_table(), "solved": solved}


@pytest.mark.parametrize(
    "table, spins, passes",
    _TWISTS,
    ids=["f1-half-half", "f1-1-half", "solved-1-1", "f1-1-1", "solved-3half-1"],
)
def test_twisted_vminus_module_agrees_with_twist_check(tables, table, spins, passes):
    """check_twist_produces on h and v+ decides whether the module (typed h,
    typed v+, F Delta0(v-) F^-1) satisfies the osp(1|2) relations.

    When both typed rules match, that module is CLASSICAL.module conjugated
    by F.  The xi^1 slice of its v- carries the xi h (x) v+ E^-2 term of
    Dj(v-), and its xi^0 slice is the primitive Delta0(v-).
    """
    r1, r2 = irrep(spins[0]), irrep(spins[1])
    f_s = build_f_super(tables[table], r1, r2)
    f = f_s * f_jordanian(r1, r2)
    twist = check_twist_produces(f, SUPER_JORDANIAN.rules, r1, r2)
    typed = SUPER_JORDANIAN.module(r1, r2)
    v_minus = f * CLASSICAL.module(r1, r2).image("v-") * inverse(f)
    module = Representation(typed.spin, typed.h, typed.v_plus, v_minus, typed.parity)
    if passes:
        module.verify()
    else:
        with pytest.raises(RepresentationError, match=re.escape("relation [h, v-] = -v- fails")):
            module.verify()
        assert [c.detail for c in twist] == ["residual has 4 nonzero entries"] * 2
    assert all(c.passed for c in twist) == passes

    dj_without = gkron(r1.v_minus, r2.image("E^-1")) + gkron(r1.identity, r2.v_minus)
    diff = xi_coefficient(v_minus - f_s * dj_without * inverse(f_s), 1)
    assert diff == xi_coefficient(gkron(r1.h, r2.v_plus * r2.image("E^-2")), 0)
    assert v_minus.substitute({"xi": sc.ZERO}) == CLASSICAL.module(r1, r2).image("v-")


def test_dsj_vminus_exact_fundamental(fund):
    """On the fundamental pair, F_s built from f1_table() is f_super_fund(),
    the twist of the one-entry table Phi = 1 (v+ X+ = 0 there), so
    F Delta0(v-) F^-1 is the same exact matrix either way and completes the
    typed h and v+ to an osp(1|2) module."""
    f = build_f_super(f1_table(), fund, fund) * f_jordanian(fund, fund)
    v_minus = f * CLASSICAL.module(fund, fund).image("v-") * inverse(f)
    k = f_super_fund() * f_jordanian(fund, fund)
    assert v_minus == k * CLASSICAL.module(fund, fund).image("v-") * inverse(k)
    typed = SUPER_JORDANIAN.module(fund, fund)
    Representation(typed.spin, typed.h, typed.v_plus, v_minus, typed.parity).verify()


def test_dsj_vminus_order_one_structure(fund):
    """The xi^1 slice of F Delta0(v-) F^-1 carries the h (x) v+ contribution.

    Dropping that term from Dj(v-) before conjugating by F_s changes the
    slice, so its presence in the twisted v- is observable.
    """
    f_s = build_f_super(f1_table(), fund, fund)
    f = f_s * f_jordanian(fund, fund)
    v_minus = f * CLASSICAL.module(fund, fund).image("v-") * inverse(f)
    without = gkron(fund.v_minus, fund.image("E^-1")) + gkron(fund.identity, fund.v_minus)
    diff = xi_coefficient(v_minus - f_s * without * inverse(f_s), 1)
    assert diff == xi_coefficient(gkron(fund.h, fund.v_plus * fund.image("E^-2")), 0)


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_WEIGHT = st.one_of(st.sampled_from([0, 1, -1]), _COEFF)
_S_THETA = st.sampled_from(
    [sc.ONE, sc.s_var(), sc.s_var(-1), sc.theta_var(), sc.s_var(-1) * sc.theta_var()]
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_series_kernel_matches_truncated_graded_matrices(data):
    """A product's xi**k slice, and a sum of truncated terms, equal
    GradedMatrix results truncated; exp and inverse are exact.

    a and b are any matrices polynomial in xi whose coefficients mix s,
    s**-1 and theta, each lowest in xi at a drawn power, so the slice's
    power may lie below every power of a product or above its top.  t is
    strictly upper triangular after a random relabelling of the basis
    and starts at xi**1, like the exponent of the twist, so F = exp(t)
    is unipotent and its inverse is exp(-t).  Every entry of t above
    the diagonal is nonzero, so its powers reach t**(dim-1).
    """
    dim = data.draw(st.integers(1, 5))
    parity = data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    label = data.draw(st.permutations(range(dim)))
    order = data.draw(st.integers(0, 5))
    power = data.draw(st.integers(0, 11))  # a product's powers lie in 0..10

    def matrix(lowest, strictly_upper):
        entries = {}
        for i in range(dim):
            for j in range(i + 1 if strictly_upper else 0, dim):
                nonzero = _COEFF.filter(bool) if strictly_upper else _COEFF
                drawn = st.lists(st.tuples(nonzero, _S_THETA), min_size=int(strictly_upper), max_size=3)
                coeffs = data.draw(drawn)
                terms = [(sc.xi_var(lowest + k) * u).scale(c) for k, (c, u) in enumerate(coeffs)]
                entries[label[i], label[j]] = sum(terms, sc.ZERO)
        return GradedMatrix.from_entries(parity, entries)

    def canonical(m):
        assert_canonical((m.terms, m.den))
        return m

    a, b = (matrix(data.draw(st.integers(0, 3)), False) for _ in "ab")
    t = matrix(1, True)
    product = a * b
    assert canonical(a.product(b, power)) == xi_coefficient(product, power).scale(sc.xi_var(power))
    terms = data.draw(st.lists(st.tuples(_WEIGHT, st.sampled_from([a, b, t])), max_size=4))
    if len(terms) > 1 and data.draw(st.booleans()):  # the last term cancels the first
        terms[-1] = (-terms[0][0], terms[0][1])
    total = GradedMatrix.linear_combination(parity, ((w, drop_xi_above(m, order)) for w, m in terms))
    assert canonical(total) == drop_xi_above(GradedMatrix.linear_combination(parity, terms), order)
    empty = GradedMatrix.linear_combination(parity, [])
    assert (empty.terms, empty.den) == ({}, 1)
    f, f_inv = exp_nilpotent(t), canonical(exp_nilpotent(t.scale(-1)))
    assert (canonical(f) * f_inv).is_identity()
    assert f_inv == inverse(f)
    assert canonical(exp_nilpotent(t.scale(-2))) == f_inv * f_inv


def test_product_slices_sum_to_the_product():
    """product(b, k) keeps only e_xi == k, s and theta untouched: zero below
    every power and above the top, and a * b is the sum of its slices."""
    xi, s, theta = sc.xi_var(), sc.s_var(), sc.theta_var()
    a = GradedMatrix.from_entries((0, 1), {(0, 0): xi * s, (0, 1): theta + xi * xi})
    b = GradedMatrix.from_entries((0, 1), {(0, 1): sc.s_var(-1).scale(Fraction(1, 2)), (1, 1): xi})
    # a b = [[0, xi/2 + theta xi + xi**3], [0, 0]]
    assert a.product(b, 0).is_zero()
    half_xi = xi.scale(Fraction(1, 2))
    assert a.product(b, 1) == GradedMatrix.from_entries((0, 1), {(0, 1): half_xi + theta * xi})
    assert a.product(b, 3) == GradedMatrix.from_entries((0, 1), {(0, 1): xi * xi * xi})
    assert a.product(b, 4).is_zero()
    slices = [(1, a.product(b, k)) for k in range(5)]
    assert a * b == GradedMatrix.linear_combination((0, 1), slices)


def test_series_exp_stops_when_the_power_vanishes(monkeypatch):
    """exp forms t**2, t**3 = 0 and stops: the number of products is the
    nilpotency index of t.  So does exp(-t), the inverse."""
    calls = []
    product = GradedMatrix.product

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 2, "exp kept multiplying after t**3 = 0"
        return product(*args)

    monkeypatch.setattr(GradedMatrix, "product", counted)
    t = GradedMatrix((0, 0, 0), {(0, 1, 0, 0, 1): 1, (1, 2, 0, 0, 1): 2})
    f = exp_nilpotent(t)
    assert len(calls) == 2
    diagonal = {(0, 0, 0, 0, 0): 1, (1, 1, 0, 0, 0): 1, (2, 2, 0, 0, 0): 1}
    assert f == GradedMatrix(
        (0, 0, 0), {**diagonal, (0, 1, 0, 0, 1): 1, (1, 2, 0, 0, 1): 2, (0, 2, 0, 0, 2): 1}
    )
    calls.clear()
    f_inv = exp_nilpotent(t.scale(-1))
    assert len(calls) == 2
    assert f_inv == GradedMatrix(
        (0, 0, 0), {**diagonal, (0, 1, 0, 0, 1): -1, (1, 2, 0, 0, 1): -2, (0, 2, 0, 0, 2): 1}
    )


def test_twist_forms_each_power_of_the_exponent_once(monkeypatch):
    """The residual of a twist forms F = exp(T) once: one product per nonzero
    power of T, plus the two products of the residual, and no F^-1."""
    r32 = irrep(Fraction(3, 2))
    pair = phi_mod._PairSeries(r32, r32)
    bilinear = f1_table(4)
    t = exponent_from_bilinear(bilinear, r32, r32)
    powers, power = 0, t
    while not power.is_zero():
        powers += 1
        power = power * t
    assert powers > 2
    calls = []
    product = GradedMatrix.product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(GradedMatrix, "product", counted)
    phi_mod._order_check("residual zero", pair.residual(build_f_super(bilinear, r32, r32)), 5)
    assert len(calls) == powers + 2


@pytest.mark.parametrize(
    "powers, through, first",
    [((), None, None), ((5,), 4, None), ((4,), 4, 4), ((6, 4), None, 4), ((6, 5, 2), 5, 2)],
    ids=["empty", "above-through", "at-through", "every-power", "lowest-of-several"],
)
def test_order_check_reads_through_its_bound(powers, through, first):
    """_order_check ignores the powers above through, every power by
    default, and names the lowest power it reads as the first failing order."""
    residual = GradedMatrix((0, 1), {(0, 1, 0, 0, x): 1 for x in powers})
    check = phi_mod._order_check("residual zero", residual, through)
    assert check.passed == (first is None)
    assert check.data == {"first_failing_order": first}
    assert check.detail == ("" if first is None else "first failing xi order %d" % first)


def test_exponent_reduces_its_sum_once(monkeypatch):
    """With the pair's word images built, the exponent over n entries is one pass: one reduction."""
    r32 = irrep(Fraction(3, 2))
    bilinear = f1_table(4)
    assert len(bilinear) > 2
    exponent_from_bilinear(bilinear, r32, r32)
    calls = []
    canonical = gmatrix_mod._canonical

    def counted(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(gmatrix_mod, "_canonical", counted)
    exponent_from_bilinear(bilinear, r32, r32)
    assert len(calls) == 1


@pytest.mark.parametrize("spins", [(2, Fraction(3, 2)), (2, 2)])
def test_unit_exponents_commute_on_a_pair(spins):
    """The unit exponents of every two visible (m, n) commute, as the
    incremental twist needs: exp of a sum is then the product of exps."""
    r1, r2 = irrep(spins[0]), irrep(spins[1])
    units = [exponent_from_bilinear({(m, n): 1}, r1, r2) for m in range(r1.dim) for n in range(r2.dim)]
    units = [u for u in units if not u.is_zero()]
    assert len(units) > 4
    for k, a in enumerate(units):
        for b in units[k + 1:]:
            assert a * b == b * a


def test_no_exponent_keeps_a_module_alive(fund):
    """An exponent on a fresh tensor module leaves nothing that refers to it,
    and on the fundamental pair only the (0, 0) entry of f_1 (x) f_1 is seen."""
    table = f1_table(3)
    refs = []
    for _ in range(20):
        module = CLASSICAL.module(fund, fund)
        build_f_super(table, module, fund)
        refs.append(weakref.ref(module))
    del module
    gc.collect()
    assert [ref() for ref in refs] == [None] * 20
    assert exponent_from_bilinear(f1_table(), fund, fund) == exponent_from_bilinear({(0, 0): 1}, fund, fund)


def test_exponent_builds_no_word_past_the_dimension_bound():
    """v+ X+^m vanishes on a module of dimension d unless 2m + 1 < d, so on a
    fresh spin-9/2 module (d = 19) the twist of a table through u**30 builds
    the words up to v+ X+^8 and no longer one.  The bound is tight there:
    v+ X+^8 is nonzero and v+ X+^9 vanishes."""
    r = irrep(Fraction(9, 2))
    fresh = Representation(r.spin, r.h, r.v_plus, r.v_minus, r.parity)
    build_f_super(closed_form_table(30), fresh, fresh)
    assert max(word.count("X+") for word in fresh._cache) == 8
    assert not fresh.image(("v+",) + ("X+",) * 8).is_zero()
    assert fresh.image(("v+",) + ("X+",) * 9).is_zero()


def test_shell_rows_are_exact_for_laurent_coefficients(monkeypatch):
    """Dj(v+) and Dsj(v+) scaled by the central s^-1 + theta scale both sides of
    R(F) = F Dj(v+) - Dsj(v+) F alike: the solve finds the same table and checks.

    Only the two v+ rule images are scaled, matched by identity; the
    exponents' rule terms are a new list on every call, so they stay as they are."""
    r32 = irrep(Fraction(3, 2))
    pairs = [(r32, irrep(1)), (r32, r32)]
    table, rep = solve_phi(4, pairs)
    factor = sc.s_var(-1) + sc.theta_var()
    rules = (JORDANIAN.rules["v+"], SUPER_JORDANIAN.rules["v+"])
    evaluate_terms = phi_mod.evaluate_terms

    def scaled(terms, r1, r2):
        m = evaluate_terms(terms, r1, r2)
        return m.scale(factor) if any(terms is rule for rule in rules) else m

    monkeypatch.setattr(phi_mod, "evaluate_terms", scaled)
    scaled_table, scaled_rep = solve_phi(4, pairs)
    dj = phi_mod._PairSeries(r32, r32).dj
    assert {(es, eth) for _, _, es, eth, _ in dj.terms} == {(-1, 0), (0, 1)}

    def summary(report):
        return [(c.name, c.passed, c.detail, c.data) for c in report.checks]

    assert scaled_table == table
    assert summary(scaled_rep) == summary(rep)

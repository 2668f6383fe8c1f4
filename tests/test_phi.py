"""The odd twist series: closed-form leading term, solver, the twisted Delta(v-)."""

import ast
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosp import _xiseries as xs
from qosp import phi as phi_mod
from qosp import scalar as sc
from qosp.coproducts import CLASSICAL, JORDANIAN, SUPER_JORDANIAN, check_twist_produces
from qosp.gmatrix import GradedMatrix, MatrixError, exp_nilpotent, gkron, inverse
from qosp.matrices import f_jordanian, f_super_fund
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
from phi_oracle import closed_form_table
from xi_oracle import assert_canonical, drop_xi_above, series_values, xi_coefficient


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
    rep = check_intertwining_s(table, fund, fund, 8)
    assert rep.passed


def test_zero_series_passes_at_order_zero(fund):
    rep = check_intertwining_s({}, fund, fund, 0)
    assert rep.passed


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
    assert check_intertwining_s(table, fund, fund, 4).passed
    _, rep = solve_phi(2, [(spin1, spin1)])
    assert rep.passed

    monkeypatch.setitem(JORDANIAN.rules, "v+", JORDANIAN.rules["v+"][:1])
    bad = check_intertwining_s(table, fund, fund, 4)
    assert bad.checks[0].data["first_failing_order"] == 0
    _, rep = solve_phi(2, [(spin1, spin1)])
    assert not rep.passed


def test_f1_only_fails_on_spin_one_at_order_three(spin1):
    rep = check_intertwining_s(f1_table(), spin1, spin1, 4)
    assert not rep.passed
    assert rep.checks[0].data["first_failing_order"] == 3


def test_solve_order_one_recovers_f1(fund, spin1):
    table, rep = solve_phi(1, [(fund, fund)], include_f1=False)
    assert rep.passed
    assert table.get((0, 0), 0) == Fraction(1)
    # deeper shells on a pair that can see them reproduce f1 x f1 off-diagonals
    table2, rep2 = solve_phi(2, [(spin1, spin1)], include_f1=False)
    assert rep2.passed
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


# every solve_phi call of this module, as (order, spin pairs, include_f1)
_SOLVES = [
    (1, [(Fraction(1, 2), Fraction(1, 2))], False),
    (2, [(1, 1)], False),
    (2, [(1, Fraction(1, 2)), (1, 1)], True),
    (2, [(1, 1), (Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True),
    (2, [(Fraction(1, 2), Fraction(1, 2))], False),
    (3, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True),
    (4, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True),
]


@pytest.mark.parametrize("order, spins, include_f1", _SOLVES)
def test_rank_one_terms_sum_back_to_the_solved_table(order, spins, include_f1):
    pairs = [(irrep(a), irrep(b)) for a, b in spins]
    table, rep = solve_phi(order, pairs, include_f1=include_f1)
    assert rep.passed
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


def test_solver_reports_inconsistency(spin1):
    """A deliberately corrupted known part makes the shells unsolvable.

    Poisoning the (0,1) coefficient of the f1 x f1 part asymmetrically
    leaves no value of the shell-2 unknown that can cancel the xi^3
    residual, and the report must say so rather than average it away.
    """
    from qosp.phi import _shell_equations_sym, solve_linear_system

    bad_known = f1_table(2)
    bad_known[(0, 1)] += Fraction(1, 3)  # break the symmetry of the known part
    pair = phi_mod._PairSeries(spin1, spin1, 3)
    rows, rhs = _shell_equations_sym(bad_known, [(1, 1)], pair, 3)
    solution, free, inconsistent = solve_linear_system(rows, rhs, ncols=1)
    assert inconsistent


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


def _record_shells(monkeypatch, *solve_args, **solve_kwargs):
    """Run solve_phi and record every shell system with its exp count."""
    calls = []
    exp_count = [0]
    shell_equations = phi_mod._shell_equations_sym
    series_exp = xs.exp

    def counting_exp(*args):
        exp_count[0] += 1
        return series_exp(*args)

    def recording(known, shell, pair, order):
        before = exp_count[0]
        rows, rhs = shell_equations(known, shell, pair, order)
        calls.append((dict(known), list(shell), *pair.reps, order, rows, rhs, exp_count[0] - before))
        return rows, rhs

    monkeypatch.setattr(xs, "exp", counting_exp)
    monkeypatch.setattr(phi_mod, "_shell_equations_sym", recording)
    _, rep = solve_phi(*solve_args, **solve_kwargs)
    assert rep.passed
    return calls


@pytest.mark.parametrize(
    "order, spins, include_f1, nshells",
    [
        (4, [(Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))], True, 10),
        (2, [(Fraction(1, 2), Fraction(1, 2))], False, 3),
    ],
)
def test_shell_equations_match_finite_differences(
    monkeypatch, order, spins, include_f1, nshells
):
    pairs = [(irrep(a), irrep(b)) for a, b in spins]
    calls = _record_shells(monkeypatch, order, pairs, include_f1=include_f1)
    assert len(calls) == nshells
    for known, shell, r1, r2, xi_order, rows, rhs, _ in calls:
        assert (rows, rhs) == _finite_difference_shell_equations(
            known, shell, r1, r2, xi_order
        ), (shell, r1.spin, r2.spin)


def test_one_exponential_per_shell(monkeypatch):
    r32 = irrep(Fraction(3, 2))
    calls = _record_shells(monkeypatch, 4, [(r32, irrep(1)), (r32, r32)])
    # shells 2..6 on each of the two pairs
    assert [c[-1] for c in calls] == [1] * 10


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
    "spins", [(1, 1), (Fraction(3, 2), 1), (2, 2)], ids=["1-1", "3half-1", "2-2"]
)
def test_closed_form_intertwines_where_f1_fails(spins):
    a, b = (irrep(j) for j in spins)
    assert check_intertwining_s(closed_form_table(8), a, b, 8).passed
    f1_only = check_intertwining_s(f1_table(), a, b, 8)
    assert f1_only.checks[0].data["first_failing_order"] == 3


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
    """On the fundamental pair, F_s built from f1_table() is the closed-form
    f_super_fund(), so F Delta0(v-) F^-1 is the same exact matrix either way
    and completes the typed h and v+ to an osp(1|2) module."""
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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_series_kernel_matches_truncated_graded_matrices(data):
    """Truncated product, slice, exp and inverse equal GradedMatrix results truncated.

    a and b are any matrices polynomial in xi over the rationals; t is
    strictly upper triangular after a random relabelling of the basis and
    starts at xi**1, like the exponent of the twist, so F = exp(t) is
    unipotent and its inverse is exp(-t).  Every entry of t above the
    diagonal is nonzero, so its powers reach t**(dim-1).
    """
    dim = data.draw(st.integers(1, 5))
    parity = data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    label = data.draw(st.permutations(range(dim)))
    order = data.draw(st.integers(0, 5))

    def matrix(lowest, strictly_upper):
        entries = {}
        for i in range(dim):
            for j in range(i + 1 if strictly_upper else 0, dim):
                nonzero = _COEFF.filter(bool) if strictly_upper else _COEFF
                coeffs = data.draw(st.lists(nonzero, min_size=int(strictly_upper), max_size=3))
                terms = [sc.xi_var(lowest + k).scale(c) for k, c in enumerate(coeffs)]
                entries[label[i], label[j]] = sum(terms, sc.ZERO)
        return GradedMatrix.from_entries(parity, entries)

    def series(m):
        return assert_canonical(xs.from_matrix(m, order))

    a, b, t = matrix(0, False), matrix(0, False), matrix(1, True)
    c = data.draw(_COEFF)
    product = assert_canonical(xs.mul(series(a), series(b), order))
    assert series_values(product) == series_values(series(drop_xi_above(a * b, order)))
    top = assert_canonical(xs.mul(series(a), series(b), order, order))
    top_slice = series_values(series(xi_coefficient(a * b, order)))
    assert series_values(top) == {(order, i, j): v for (_, i, j), v in top_slice.items()}
    total = assert_canonical(xs.add(series(a), series(b), c))
    assert series_values(total) == series_values(series(a + b.scale(c)))
    f, f_inv = map(assert_canonical, xs.exp(series(t), dim, order))
    assert series_values(f) == series_values(series(exp_nilpotent(t)))
    assert series_values(f_inv) == series_values(series(inverse(exp_nilpotent(t))))


def test_series_exp_stops_when_the_power_vanishes(monkeypatch):
    """exp forms t**2, t**3 = 0 and stops, whatever the order: the number
    of products is bounded by the nilpotency index of t, not by the order."""
    calls = []
    mul = xs.mul

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 2, "exp kept multiplying after t**3 = 0"
        return mul(*args)

    monkeypatch.setattr(xs, "mul", counted)
    t = ({(1, 0, 1): 1, (1, 1, 2): 2}, 1)
    f, f_inv = xs.exp(t, 3, 10**4)
    assert len(calls) == 2
    assert series_values(f) == {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, (1, 1, 2): 2, (2, 0, 2): 1,
    }
    assert series_values(f_inv) == {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): -1, (1, 1, 2): -2, (2, 0, 2): 1,
    }


def test_twist_forms_each_power_of_the_exponent_once(monkeypatch):
    """F and F^-1 share the powers of T: one product per power of T, plus F F^-1."""
    r32 = irrep(Fraction(3, 2))
    pair = phi_mod._PairSeries(r32, r32, 5)
    bilinear = f1_table(4)
    t = pair.exponent(bilinear, 5)
    powers, power = 0, t
    while not xs.is_zero(power):
        powers += 1
        power = xs.mul(power, t, 5)
    assert powers > 2
    calls = []
    mul = xs.mul

    def counted(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(xs, "mul", counted)
    pair.twist(bilinear, 5)
    assert len(calls) == powers + 1


@pytest.mark.parametrize(
    "entry",
    [
        sc.s_var(),
        sc.s_var(-1),
        sc.theta_var(),
        sc.xi_var() * sc.theta_var(),
        sc.inv(sc.s_var() + sc.ONE),
    ],
)
def test_series_conversion_rejects_s_theta_and_denominators(entry):
    m = GradedMatrix.from_entries((0, 1), {(0, 0): sc.ONE, (0, 1): entry})
    with pytest.raises(MatrixError, match="entry \\(1, 2\\) is not rational in xi"):
        xs.from_matrix(m, 3)

"""Graded tensor algebra: products, flips, leg placements, exp/log, inversion.

Includes the sign-convention enumeration: all four Koszul candidate
rules and all eight parity vectors of the 3-dimensional space are run
against (a) the graded YBE for the q-deformed R-matrix and (b) the
reconstruction of the odd twist matrix, to exhibit that the shipped
combination (column rule, parity (0,1,0), exponent -2 xi (v x v) Phi)
is the one that reproduces the fixed matrices.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosp import scalar as sc
from qosp.gmatrix import (
    GradedMatrix,
    MatrixError,
    check_gybe,
    exp_nilpotent,
    flip_legs,
    from_json_dict,
    gkron,
    kron_parity,
    log1p_nilpotent,
    residual_check,
    rll_residual,
    tensor_sum,
    to_json_dict,
)
from koszul_rules import gflip, gkron_rule
import matrix_oracle as oracle
from xi_oracle import assert_canonical, xi_coefficient
from qosp.matrices import f_jordanian_fund, f_super_fund, kr_rmatrix, m_matrix
from qosp.reps import fundamental_rep
from qosp.scalar import ONE, ZERO, rational

FUND = (0, 1, 0)


def _rand_matrix(rng, parity, density=0.5, homogeneous=None):
    entries = {}
    n = len(parity)
    for i in range(n):
        for j in range(n):
            if homogeneous is not None and (parity[i] + parity[j]) % 2 != homogeneous:
                continue
            if rng.random() < density:
                entries[(i, j)] = rational(Fraction(rng.randint(-4, 4)))
    return GradedMatrix.from_entries(parity, entries)


def test_gkron_identities():
    i3 = GradedMatrix.identity(FUND)
    assert gkron(i3, i3) == GradedMatrix.identity(kron_parity(FUND, FUND))


def test_gkron_m_squared_pattern():
    mm = gkron(m_matrix(), m_matrix())
    th = sc.theta_var()
    expected = {
        (0, 6): th, (1, 7): th, (2, 8): th,
        (0, 2): th, (3, 5): th, (6, 8): th,
        (0, 8): th * th,
    }
    for (i, j), v in expected.items():
        assert mm[i, j] == v
    assert mm.nonzero_count() == 9 + 7


def test_gkron_vv_signs():
    # column-rule signs on the odd generator pair; the -2 xi exponent
    # then reproduces the odd twist matrix with these signs flipped
    f = fundamental_rep()
    g = gkron(f.v_plus, f.v_plus)
    quarter = Fraction(1, 4)
    assert g[0, 4] == rational(-quarter)
    assert g[1, 5] == rational(-quarter)
    assert g[3, 7] == rational(quarter)
    assert g[4, 8] == rational(quarter)
    assert g.nonzero_count() == 4


def test_gflip_entries_and_involution():
    p = gflip(FUND)
    # odd-odd pair picks up the Koszul minus
    assert p[4, 4] == -ONE
    assert p[3, 1] == ONE
    assert (p * p).is_identity()


def test_flip_legs_is_an_involution():
    i9 = GradedMatrix.identity(kron_parity(FUND, FUND))
    assert flip_legs(i9, FUND) == i9
    r = kr_rmatrix()
    assert flip_legs(flip_legs(r, FUND), FUND) == r


def test_flip_legs_of_the_odd_twist_is_its_inverse():
    fs = f_super_fund()
    fs21 = flip_legs(fs, FUND)
    assert (fs21 * fs).is_identity() and (fs * fs21).is_identity()


def test_flip_legs_is_the_product_with_the_explicit_flip():
    """flip_legs(m, v, w) equals P12 m P12, P12 = gflip(v) (x) I_W built as a matrix."""
    rng = random.Random(18)
    for trial in range(60):
        v = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        if trial % 3 == 0:
            v = (1,) + v[1:]
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        m = _rand_matrix(rng, kron_parity(kron_parity(v, v), w), density=0.3)
        p12 = gkron(gflip(v), GradedMatrix.identity(w))
        assert flip_legs(m, v, w) == p12 * m * p12
        two_legs = _rand_matrix(rng, kron_parity(v, v), density=0.3)
        assert flip_legs(two_legs, v) == gflip(v) * two_legs * gflip(v)


def test_flip_legs_rejects_a_mismatched_parity():
    r = kr_rmatrix()
    for v, w in (((0, 1), (0,)), ((0, 0, 0), (0,)), (FUND, (1,)), (FUND, (0, 0))):
        with pytest.raises(MatrixError, match="dimension or parity mismatch"):
            flip_legs(r, v, w)


def test_flip_intertwines_gkron():
    rng = random.Random(11)
    for _ in range(200):
        parity = tuple(rng.randint(0, 1) for _ in range(3))
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = _rand_matrix(rng, parity, homogeneous=pa)
        b = _rand_matrix(rng, parity, homogeneous=pb)
        p = gflip(parity)
        lhs = p * gkron(a, b) * p
        rhs = gkron(b, a).scale((-1) ** (pa * pb))
        assert (lhs - rhs).is_zero()


def test_gkron_associativity():
    rng = random.Random(12)
    for _ in range(200):
        p1 = tuple(rng.randint(0, 1) for _ in range(2))
        p2 = tuple(rng.randint(0, 1) for _ in range(2))
        p3 = tuple(rng.randint(0, 1) for _ in range(2))
        a = _rand_matrix(rng, p1)
        b = _rand_matrix(rng, p2)
        c = _rand_matrix(rng, p3)
        assert gkron(gkron(a, b), c) == gkron(a, gkron(b, c))


def test_gkron_functoriality():
    rng = random.Random(13)
    for _ in range(200):
        p1 = tuple(rng.randint(0, 1) for _ in range(3))
        p2 = tuple(rng.randint(0, 1) for _ in range(2))
        pb, pc = rng.randint(0, 1), rng.randint(0, 1)
        a = _rand_matrix(rng, p1)
        c = _rand_matrix(rng, p1, homogeneous=pc)
        b = _rand_matrix(rng, p2, homogeneous=pb)
        d = _rand_matrix(rng, p2)
        lhs = gkron(a, b) * gkron(c, d)
        rhs = gkron(a * c, b * d).scale((-1) ** (pb * pc))
        assert (lhs - rhs).is_zero()


def _place13(r, parity):
    """r on legs 1 and 3 by relabelling, checked against the product P12 R23 P12."""
    i3 = GradedMatrix.identity(parity)
    p12, r23 = gkron(gflip(parity), i3), gkron(i3, r)
    r13 = flip_legs(r23, parity, parity)
    assert r13 == p12 * r23 * p12
    return r13


def test_placements_of_the_identity():
    i9 = GradedMatrix.identity(kron_parity(FUND, FUND))
    i3 = GradedMatrix.identity(FUND)
    for m in (gkron(i9, i3), _place13(i9, FUND), gkron(i3, i9)):
        assert m.is_identity()
    from qosp.matrices import contract_r

    r0 = contract_r().substitute({"xi": ZERO})
    assert gkron(r0, i3).is_identity()


def test_leg_13_placement_of_an_even_product():
    # even (x) even splits as an ordinary placement on legs 1 and 3
    rng = random.Random(14)
    a = _rand_matrix(rng, FUND, homogeneous=0)
    b = _rand_matrix(rng, FUND, homogeneous=0)
    r13 = _place13(gkron(a, b), FUND)
    i3 = GradedMatrix.identity(FUND)
    assert r13 == gkron(gkron(a, i3), b)


def test_leg_13_placement_matches_the_legs_23_flip():
    # independent construction of the (1,3) embedding through the flip of
    # legs 2 and 3, and the full YBE residual against check_gybe
    rng = random.Random(15)
    for _ in range(5):
        parity = tuple(rng.randint(0, 1) for _ in range(3))
        r = _rand_matrix(rng, kron_parity(parity, parity), density=0.25)
        i3 = GradedMatrix.identity(parity)
        swap23 = gkron(i3, gflip(parity))
        oracle13 = swap23 * gkron(r, i3) * swap23
        assert _place13(r, parity) == oracle13
        assert flip_legs(oracle13, parity, parity) == gkron(i3, r)
        assert flip_legs(r, parity) == gflip(parity) * r * gflip(parity)
        r12, r23 = gkron(r, i3), gkron(i3, r)
        explicit_residual = r12 * oracle13 * r23 - r23 * oracle13 * r12
        assert rll_residual(r, r, parity, parity) == explicit_residual
        check = check_gybe(r, parity, "gybe")
        nonzero = [(i + 1, j + 1, sc.format_scalar(v)) for i, j, v in explicit_residual.entries()]
        assert check.passed == explicit_residual.is_zero()
        assert check.data["nonzero"] == nonzero[:10]
        assert check.detail == (
            "residual has %d nonzero entries" % len(nonzero) if nonzero else "residual is zero"
        )


def test_rll_residual_matches_the_four_product_formula():
    """R12 X13 X23 - X23 X13 R12 with X on V (x) W, W not V, X13 built as P12 X23 P12."""
    rng = random.Random(17)
    nonzero_cases = 0
    for _ in range(12):
        v = tuple(rng.randint(0, 1) for _ in range(rng.randint(2, 3)))
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        r = _rand_matrix(rng, kron_parity(v, v), density=0.2)
        x = _rand_matrix(rng, kron_parity(v, w), density=0.2)
        ident_v, ident_w = GradedMatrix.identity(v), GradedMatrix.identity(w)
        p12 = gkron(gflip(v), ident_w)
        r12, x23 = gkron(r, ident_w), gkron(ident_v, x)
        x13 = p12 * x23 * p12
        explicit = r12 * x13 * x23 - x23 * x13 * r12
        assert rll_residual(r, x, v, w) == explicit
        nonzero_cases += not explicit.is_zero()
    assert nonzero_cases >= 6


def test_rll_residual_takes_three_products(monkeypatch):
    calls = []
    mul = GradedMatrix.__mul__
    monkeypatch.setattr(GradedMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    rll_residual(kr_rmatrix(), kr_rmatrix(), FUND, FUND)
    assert len(calls) == 3


def test_check_gybe_detects_failure():
    rng = random.Random(16)
    entries = {(i, j): v for i, j, v in kr_rmatrix().entries()}
    entries[(1, 3)] = ONE  # break the a-entry
    bad = GradedMatrix.from_entries(kron_parity(FUND, FUND), entries)
    assert not check_gybe(bad, FUND, "gybe").passed


def test_flip_takes_the_parity_of_v_with_odd_first_basis_vector():
    # the parity of V (x) V is the same for v and for its global flip
    # (0, 1, 1), so only the v passed in fixes the flip's signs
    v = (1, 0, 0)
    p = gflip(v)
    assert rll_residual(p, p, v, v).is_zero()
    check = check_gybe(p, v, "gybe graded flip")
    assert check.passed and check.detail == "residual is zero"
    assert (flip_legs(p, v) * p).is_identity()
    with pytest.raises(MatrixError):
        check_gybe(kr_rmatrix(), (0, 1), "gybe kr on a 2-dim V")


def test_residual_check_lists_the_first_ten_nonzeros():
    parity = (0, 1) * 6
    anti_diagonal = {(i, 11 - i): sc.rational(i) for i in range(1, 12)}
    residual = GradedMatrix.from_entries(parity, anti_diagonal)
    check = residual_check("anti-diagonal", residual, "unused on a failure")
    assert not check.passed
    assert check.detail == "residual has 11 nonzero entries"
    assert check.data == {"nonzero": [(i + 1, 12 - i, str(i)) for i in range(1, 11)]}
    zero = residual_check("zero", GradedMatrix.from_entries(parity, {}), "sides agree")
    assert zero.passed and zero.detail == "sides agree" and zero.data == {"nonzero": []}


def test_inverse_unipotent_and_diagonal():
    """exp(-log u) inverts the unipotent M = I + theta X+ and fixes the identity."""
    m = m_matrix()
    m_inv = oracle.unipotent_inverse(m)
    th = sc.theta_var()
    assert m_inv[0, 2] == -th
    assert (m * m_inv).is_identity()
    i9 = GradedMatrix.identity(kron_parity(FUND, FUND))
    assert oracle.unipotent_inverse(i9) == i9


def test_inverse_jordanian_block_swap():
    """F(j)^-1 = exp(-h (x) sigma) swaps the signs of the xi entries of F(j)."""
    fj = f_jordanian_fund()
    f = fundamental_rep()
    fj_inv = exp_nilpotent(gkron(f.h, f.image("sigma")).scale(-1))
    assert fj_inv == oracle.unipotent_inverse(fj)
    xi = sc.xi_var()
    assert fj_inv[0, 2] == -xi
    assert fj_inv[6, 8] == xi
    assert (fj * fj_inv).is_identity()


def test_inverse_singular_raises():
    """exp(-log u) of the singular zero matrix: -I is not nilpotent, so log raises."""
    z = GradedMatrix.from_entries(FUND, {})
    with pytest.raises(MatrixError):
        oracle.unipotent_inverse(z)


def test_inverse_rejects_non_unipotent():
    """exp(-log u) covers I + nilpotent only, even where a field inverse exists:
    log's series rejects u - I as not nilpotent."""
    two = GradedMatrix.identity(FUND).scale(2)
    for m in (two, kr_rmatrix()):
        with pytest.raises(MatrixError, match="not nilpotent"):
            oracle.unipotent_inverse(m)


def test_exp_log_round_trip():
    """log1p_nilpotent takes the nilpotent N of I + N, as exp_nilpotent does,
    and exp(-m) is the two-sided inverse of exp(m)."""
    z = GradedMatrix.from_entries(FUND, {})
    ident = GradedMatrix.identity(FUND)
    assert exp_nilpotent(z).is_identity() and log1p_nilpotent(z).is_zero()
    xi = sc.xi_var()
    n = GradedMatrix.from_entries(FUND, {(0, 2): xi.scale(2)})
    assert log1p_nilpotent(n) == n
    rng = random.Random(18)
    for _ in range(25):
        entries = {}
        for i in range(3):
            for j in range(i + 1, 3):
                entries[(i, j)] = xi.scale(rng.randint(-3, 3))
        m = GradedMatrix.from_entries(FUND, entries)
        u, u_inv = exp_nilpotent(m), exp_nilpotent(m.scale(-1))
        assert log1p_nilpotent(u - ident) == m
        assert (u * u_inv).is_identity() and (u_inv * u).is_identity()


def test_exp_rejects_non_nilpotent():
    with pytest.raises(MatrixError):
        exp_nilpotent(GradedMatrix.identity(FUND))


def test_exp_h_tensor_sigma_is_even_twist():
    f = fundamental_rep()
    assert exp_nilpotent(gkron(f.h, f.image("sigma"))) == f_jordanian_fund()


def test_exp_vplus_tensor_vplus_is_odd_twist():
    """The closed form exp(-2 xi v+ (x) v+) is the odd twist built from the table Phi = 1."""
    v = fundamental_rep().v_plus
    assert exp_nilpotent(gkron(v, v).scale(sc.xi_var().scale(-2))) == f_super_fund()


def test_json_round_trip():
    rng = random.Random(19)
    for _ in range(200):
        parity = tuple(rng.randint(0, 1) for _ in range(3))
        m = _rand_matrix(rng, parity)
        m = m.map_entries(lambda a: a * sc.xi_var() if rng.random() < 0.3 else a)
        assert from_json_dict(to_json_dict(m)) == m


# ---------------------------------------------------------------------------
# the sign-convention enumeration, shipped rather than hidden


def _with_parity(base, parity):
    entries = {(i, j): v for i, j, v in base.entries()}
    return GradedMatrix.from_entries(kron_parity(parity, parity), entries)


def _kr_with_parity(parity):
    return _with_parity(kr_rmatrix(), parity)


def _fs_golden(parity):
    return _with_parity(f_super_fund(), parity)


ALL_PARITIES = [
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
]
CONVENTIONS = ("first_row", "first_col", "second_row", "second_col")


def _gybe_numeric(r, base):
    rn = r.substitute({"s": rational(2)})
    return rll_residual(rn, rn, base, base).is_zero()


def test_sign_convention_enumeration():
    """Which (convention, parity, exponent sign) reproduce the fixed data.

    (a) the graded YBE for the q-deformed R-matrix selects the parity
        vector (0,1,0) uniquely among all eight: the check only
        involves even matrices, so it probes the flip alone;
    (b) reconstructing the odd twist matrix from exp(sign * 2 xi
        (v x v)(f1 x f1)) then selects the convention-sign pairs
        (row, +) and (column, -).
    The production choice is the column rule with the -2 xi
    exponent: of the two survivors only the column rule also satisfies
    the twisted coproduct of h, which the coproduct tests pin down.
    """
    gybe_pass = [p for p in ALL_PARITIES if _gybe_numeric(_kr_with_parity(p), p)]
    assert gybe_pass == [(0, 1, 0)]

    xi = sc.xi_var()
    half = rational(Fraction(1, 2))
    winners = []
    for parity in ALL_PARITIES:
        v = GradedMatrix.from_entries(parity, {(0, 1): half, (1, 2): half})
        e13 = GradedMatrix.from_entries(parity, {(0, 2): ONE})
        f1 = GradedMatrix.identity(parity) - e13.map_entries(
            lambda a: a * xi
        ).scale(Fraction(1, 2))
        for conv in CONVENTIONS:
            gv = gkron_rule(v, v, conv)
            phi_im = gkron_rule(f1, f1, conv)
            for sign in (1, -1):
                t = (gv * phi_im).scale(2 * sign).map_entries(lambda a: a * xi)
                if exp_nilpotent(t) == _fs_golden(parity):
                    winners.append((parity, conv, sign))
    survivors = [w for w in winners if w[0] in gybe_pass]
    assert set(survivors) == {
        ((0, 1, 0), "first_row", 1),
        ((0, 1, 0), "first_col", -1),
    }


# ---------------------------------------------------------------------------
# sparse, immutable storage


def test_json_rejects_bad_indices_and_parities():
    def doc(entries, parities=(0, 1, 0), dim=3):
        return {"dim": dim, "parities": list(parities), "entries": entries}

    bad = [
        doc([[0, 1, "1"]]),  # index 0 used to write the last row
        doc([[1, 0, "1"]]),
        doc([[4, 1, "1"]]),
        doc([[1, -1, "1"]]),
        doc([[1, 1, "1"], [1, 1, "2"]]),
        doc([], parities=(0, 2, 0)),
        doc([], parities=(0, -1, 0)),
        doc([], dim=2),
        doc([], dim=3.0),
        doc([[1, 1, "1"]], parities=(0,), dim=True),
        {"dim": 1},
        [],
        doc([[1, 1]]),
        doc([[1, 1, 1]]),
    ]
    for d in bad:
        with pytest.raises(MatrixError):
            from_json_dict(d)
    assert from_json_dict(doc([[3, 3, "1"]])) == GradedMatrix.from_entries(FUND, {(2, 2): ONE})


def test_no_zero_entry_is_stored():
    r = kr_rmatrix()
    xi = sc.xi_var()
    n = GradedMatrix.from_entries(FUND, {(0, 2): xi})
    cancelled = [
        r - r,
        r + r.scale(-1),
        r.scale(0),
        xi_coefficient(r, 1),
        r.map_entries(lambda a: a - a),
        n * n,
        GradedMatrix.from_entries(FUND, {(0, 0): ZERO, (1, 1): ONE - ONE}),
    ]
    for m in cancelled:
        assert m.nonzero_count() == 0
        assert list(m.entries()) == []
        assert m == GradedMatrix.from_entries(m.parity, {})
    partial = r - GradedMatrix.identity(r.parity)
    assert all(not v.is_zero() for _, _, v in partial.entries())
    assert partial.nonzero_count() == r.nonzero_count() - 5  # the five unit diagonal entries
    assert partial[1, 1] == ZERO


def test_every_kernel_returns_the_canonical_zero():
    """A sum that cancels, a zero weight, a zero leg beside a fractional one
    and a product with zero each give no terms over den == 1."""
    third = sc.xi_var().scale(Fraction(1, 3))
    a = GradedMatrix.from_entries(FUND, {(0, 1): rational(Fraction(1, 2)), (2, 2): third})
    assert a.den == 6
    zero, zero2 = GradedMatrix.from_entries(FUND, {}), GradedMatrix.from_entries((1, 0), {})
    kernels = [
        a - a,
        GradedMatrix.linear_combination(FUND, [(0, a)]),
        GradedMatrix.linear_combination(FUND, [(ZERO, a), (Fraction(1, 2), zero)]),
        a.scale(0),
        tensor_sum(FUND, (1, 0), [(1, a, zero2)]),
        tensor_sum((1, 0), FUND, [(Fraction(1, 3), zero2, a)]),
        gkron(a, zero2),
        a * zero,
        zero * a,
        a.product(zero, 1),
    ]
    for m in kernels:
        assert m.terms == {} and type(m.den) is int and m.den == 1, m
        assert m == GradedMatrix.from_entries(m.parity, {})


def test_linear_combination_checks_every_term_and_takes_a_list_parity():
    """A parity mismatch in any term raises, not only in the first; a list parity is a tuple."""
    i3 = GradedMatrix.identity(FUND)
    for bad in (GradedMatrix.identity((1, 0, 1)), GradedMatrix.identity((0, 1))):
        for terms in ([(1, bad)], [(1, i3), (-1, bad)], [(1, i3), (-1, i3), (Fraction(1, 2), bad)]):
            with pytest.raises(MatrixError, match="dimension or parity mismatch"):
                GradedMatrix.linear_combination(FUND, terms)
    total = GradedMatrix.linear_combination(list(FUND), [(1, i3), (-1, i3), (3, i3)])
    assert total.parity == FUND and total == i3.scale(3)
    assert GradedMatrix.linear_combination(list(FUND), []) == GradedMatrix.from_entries(FUND, {})


def test_matrices_are_immutable():
    r = kr_rmatrix()
    before = to_json_dict(r)
    assert not hasattr(r, "rows")
    with pytest.raises(TypeError):
        r[0, 0] = ONE
    for name in ("dim", "parity", "rows", "terms", "den"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        del r.dim
    with pytest.raises(IndexError):
        r[9, 0]
    entries = {(0, 0): ONE}
    m = GradedMatrix.from_entries(FUND, entries)
    entries[(0, 0)] = ZERO
    assert m[0, 0] == ONE
    for _ in (r + r, r - r, r.scale(-1), r * r, r.scale(2), gkron(m, m), flip_legs(r, FUND)):
        pass
    assert to_json_dict(r) == before


_SCALARS = st.sampled_from(
    [ZERO, ZERO, ONE, -ONE, rational(2), rational(Fraction(-1, 2)), sc.xi_var(), -sc.xi_var()]
)
_PARITIES = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)


@st.composite
def _graded_matrices(draw, parity):
    n = len(parity)
    values = draw(st.lists(_SCALARS, min_size=n * n, max_size=n * n))
    return GradedMatrix.from_entries(
        parity, {(i, j): values[i * n + j] for i in range(n) for j in range(n)}
    )


def _dense(m):
    return [[m[i, j] for j in range(m.dim)] for i in range(m.dim)]


def _assert_matches(m, dense):
    """m equals the dense reference and stores exactly its nonzeros."""
    assert _dense(m) == dense
    assert all(not v.is_zero() for _, _, v in m.entries())
    assert m.nonzero_count() == sum(not v.is_zero() for row in dense for v in row)


def _dense_gkron(a, b):
    pa, pb = a.parity, b.parity
    n1, n2 = a.dim, b.dim
    da, db = _dense(a), _dense(b)
    out = [[ZERO] * (n1 * n2) for _ in range(n1 * n2)]
    for i, j, x, y in itertools.product(range(n1), range(n1), range(n2), range(n2)):
        v = da[i][j] * db[x][y]
        out[i * n2 + x][j * n2 + y] = -v if pa[j] * (pb[x] + pb[y]) % 2 else v
    return out


def _place_two_leg(x, legs, spaces):
    """x on legs (0, 1), (1, 2), or (0, 2) with spaces[1] == spaces[0], via gkron."""
    first, last = GradedMatrix.identity(spaces[0]), GradedMatrix.identity(spaces[2])
    if legs == (0, 1):
        return gkron(x, last)
    l23 = gkron(first, x)
    if legs == (1, 2):
        return l23
    return flip_legs(l23, spaces[0], spaces[2])


def _dense_place_two_leg(x, legs, spaces):
    """Every (row, column) pair of the product basis, straight from the sign rule."""
    i, j = legs
    dims = [len(p) for p in spaces]
    dx = _dense(x)
    basis = list(itertools.product(*(range(d) for d in dims)))
    out = []
    for r in basis:
        row = []
        for c in basis:
            if any(r[k] != c[k] for k in range(len(dims)) if k not in legs):
                row.append(ZERO)
                continue
            v = dx[r[i] * dims[j] + r[j]][c[i] * dims[j] + c[j]]
            second = (spaces[j][r[j]] + spaces[j][c[j]]) % 2
            entry = (spaces[i][r[i]] + spaces[i][c[i]] + second) % 2
            sgn = second * sum(spaces[k][r[k]] for k in range(i + 1, j))
            sgn += entry * sum(spaces[k][r[k]] for k in range(i))
            row.append(-v if sgn % 2 else v)
        out.append(row)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_operations_match_dense_reference(data):
    parity = data.draw(_PARITIES)
    a = data.draw(_graded_matrices(parity))
    b = data.draw(_graded_matrices(parity))
    da, db = _dense(a), _dense(b)
    n = len(parity)
    _assert_matches(
        a * b,
        [[sum((da[i][k] * db[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)],
    )
    _assert_matches(a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)])
    _assert_matches(a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)])
    c = data.draw(_PARITIES.flatmap(_graded_matrices))
    _assert_matches(gkron(a, c), _dense_gkron(a, c))

    spaces = [data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=2).map(tuple)) for _ in range(3)]
    legs = data.draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    if legs == (0, 2):
        spaces[1] = spaces[0]
    x = data.draw(_graded_matrices(kron_parity(spaces[legs[0]], spaces[legs[1]])))
    _assert_matches(_place_two_leg(x, legs, spaces), _dense_place_two_leg(x, legs, spaces))


_MIXED_COEFFS = st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
_MONOMIALS = st.tuples(st.integers(-2, 1), st.integers(0, 1), st.integers(0, 2))


@st.composite
def _mixed_scalars(draw):
    """0 to 2 terms c * s**a theta**b xi**e, with int and Fraction c and a < 0 allowed."""
    total = ZERO
    for (es, eth, exi), c in draw(st.lists(st.tuples(_MONOMIALS, _MIXED_COEFFS), max_size=2)):
        theta = sc.theta_var() if eth else ONE
        total = total + (sc.s_var(es) * theta * sc.xi_var(exi)).scale(c)
    return total


@st.composite
def _mixed_matrices(draw, parity):
    """A matrix of drawn mixed entries, whose entries() read back the drawn nonzeros."""
    n = len(parity)
    drawn = {(i, j): draw(_mixed_scalars()) for i in range(n) for j in range(n)}
    m = GradedMatrix.from_entries(parity, drawn)
    assert oracle.entry_map(m) == {k: v for k, v in drawn.items() if not v.is_zero()}
    return m


def _assert_canonical(m):
    """m is a canonical numerator map over its denominator, under in-range keys."""
    assert_canonical((m.terms, m.den))
    assert all(
        0 <= i < m.dim and 0 <= j < m.dim and eth >= 0 and exi >= 0
        for i, j, _, eth, exi in m.terms
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_kernels_match_the_scalar_reference(data):
    """Products, sums, scaling, gkron and flip_legs equal the {(i, j): Scalar} kernels."""
    parity = data.draw(_PARITIES)
    a, b = data.draw(_mixed_matrices(parity)), data.draw(_mixed_matrices(parity))
    coeffs = st.one_of(
        st.sampled_from([0, 1, -1, 2, Fraction(-3, 2)]),
        st.sampled_from([sc.rational(Fraction(2, 3)), sc.rational(0)]),
        _mixed_scalars(),
    )
    terms = data.draw(st.lists(st.tuples(coeffs, st.sampled_from([a, b])), max_size=4))
    c = data.draw(coeffs)
    d = data.draw(_PARITIES.flatmap(_mixed_matrices))
    v, w = (data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=2).map(tuple)) for _ in "vw")
    x = data.draw(_mixed_matrices(kron_parity(kron_parity(v, v), w)))
    results = [
        (a * b, oracle.mul(a, b)),
        (a + b, oracle.linear_combination([(1, a), (1, b)])),
        (a - b, oracle.linear_combination([(1, a), (-1, b)])),
        (GradedMatrix.linear_combination(parity, terms), oracle.linear_combination(terms)),
        (a.scale(c), oracle.linear_combination([(c, a)])),
        (gkron(a, d), oracle.gkron(a, d)),
        (flip_legs(x, v, w), oracle.flip_legs(x, v, w)),
    ]
    for got, want in [(a, oracle.entry_map(a)), (x, oracle.entry_map(x))] + results:
        assert oracle.entry_map(got) == want
        _assert_canonical(got)
        assert got.nonzero_count() == len(want)
        assert got == GradedMatrix.from_entries(got.parity, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_sum_matches_the_sum_of_reference_kronecker_products(data):
    """tensor_sum equals sum c * gkron(a, b) of the {(i, j): Scalar} kernels, for
    int, Fraction and Scalar weights (s^-k, theta, xi), zero weights and legs."""
    p1, p2 = data.draw(_PARITIES), data.draw(_PARITIES)
    weights = st.one_of(
        st.sampled_from([0, 1, -1, 2, Fraction(-3, 2)]),
        st.sampled_from([sc.rational(Fraction(2, 3)), sc.rational(0)]),
        _mixed_scalars(),
    )
    terms = data.draw(
        st.lists(st.tuples(weights, _mixed_matrices(p1), _mixed_matrices(p2)), max_size=4)
    )
    parity = kron_parity(p1, p2)
    want = oracle.linear_combination(
        [(c, GradedMatrix.from_entries(parity, oracle.gkron(a, b))) for c, a, b in terms]
    )
    got = tensor_sum(list(p1), list(p2), terms)
    assert got.parity == parity
    assert oracle.entry_map(got) == want
    _assert_canonical(got)
    assert got == GradedMatrix.from_entries(parity, want)


def test_tensor_sum_of_no_terms_and_mismatched_legs():
    """The empty sum is the zero matrix on kron_parity(p1, p2); a leg of the
    wrong parity in any term raises MatrixError."""
    i3, i2 = GradedMatrix.identity(FUND), GradedMatrix.identity((1, 0))
    empty = tensor_sum(FUND, (1, 0), [])
    assert empty.parity == kron_parity(FUND, (1, 0)) and empty.is_zero()
    assert tensor_sum(FUND, (1, 0), [(1, i3, i2)]) == gkron(i3, i2)
    for bad in ([(1, i2, i2)], [(1, i3, i3)], [(1, i3, i2), (Fraction(1, 2), i3, i3)]):
        with pytest.raises(MatrixError, match="dimension or parity mismatch"):
            tensor_sum(FUND, (1, 0), bad)


def test_nonzero_count_counts_an_entry_of_several_terms_once():
    xi = sc.xi_var()
    two = ONE + xi + sc.s_var(-1)
    m = GradedMatrix.from_entries(FUND, {(0, 1): two, (2, 2): xi.scale(Fraction(1, 3))})
    assert len(m.terms) == 4 and m.den == 3
    assert m.nonzero_count() == 2
    assert m[0, 1] == two and m[1, 0] == ZERO

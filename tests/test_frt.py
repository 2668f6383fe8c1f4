"""The FRT exchange relation and the generator coproducts."""

from fractions import Fraction

import pytest

from qosp import scalar as sc
from qosp.coproducts import (
    FRT_COPRODUCTS,
    Q_DEFORMED,
    check_qcoproduct_xplus,
    check_twist_produces,
    f_jordanian,
)
from qosp.gmatrix import GradedMatrix, gkron
from qosp.matrices import contract_r, f_super_fund, frt_check
from qosp.phi import build_f_super, f1_table, solve_phi
from qosp.reps import fundamental_rep, irrep, lplus_matrix
from qosp.scalar import ZERO


def test_lplus_fundamental_equals_contracted_r():
    # in the fundamental the generator matrix is the contracted R-matrix
    assert lplus_matrix(fundamental_rep()) == contract_r()


def test_frt_fundamental():
    assert frt_check(fundamental_rep()).passed


def test_frt_spin_one():
    assert frt_check(irrep(1)).passed


def test_frt_fails_on_a_perturbed_generator_matrix(monkeypatch):
    import qosp.matrices as matrices_mod

    def perturbed(r):
        l_mat = lplus_matrix(r)
        return l_mat + GradedMatrix.from_entries(l_mat.parity, {(0, 1): sc.xi_var()})

    monkeypatch.setattr(matrices_mod, "lplus_matrix", perturbed)
    assert not frt_check(fundamental_rep()).passed
    assert not frt_check(irrep(1)).passed


def test_frt_trivial_at_xi_zero():
    r = irrep(1)
    l_mat = lplus_matrix(r).substitute({"xi": ZERO})
    assert l_mat.is_identity()


def _frt_coproduct_checks(table, a, b):
    """FRT_COPRODUCTS under the composed twist F_s F_j, F_s built from table on (a, b)."""
    return check_twist_produces(build_f_super(table, a, b) * f_jordanian(a, b), FRT_COPRODUCTS, a, b)


def test_l_coproducts():
    f = fundamental_rep()
    checks = check_twist_produces(f_super_fund() * f_jordanian(f, f), FRT_COPRODUCTS, f, f)
    assert [c.name for c in checks] == ["Delta(%s) matches closed form" % g for g in "EVWH"]
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("spins", [(1, Fraction(1, 2)), (Fraction(1, 2), 1)])
def test_l_coproducts_on_mixed_pairs_with_f1(spins):
    a, b = irrep(spins[0]), irrep(spins[1])
    assert all(c.passed for c in _frt_coproduct_checks(f1_table(), a, b))


def test_l_coproducts_spin_one_need_more_than_f1():
    """On (1, 1), f_1 alone twists E right and V, W, H wrong; the solved table twists all four."""
    r = irrep(1)
    checks = _frt_coproduct_checks(f1_table(), r, r)
    assert [(c.passed, c.detail) for c in checks] == [(True, "")] + [
        (False, "residual has 4 nonzero entries")
    ] * 3
    solved, rep = solve_phi(2, [(r, r)])
    assert rep.passed
    assert all(c.passed for c in _frt_coproduct_checks(solved, r, r))


def test_l_coproducts_fail_without_the_wv_term():
    """Dropping -W (x) V from the H rule fails Delta(H) alone, by exactly W (x) V."""
    f = fundamental_rep()
    rules = dict(FRT_COPRODUCTS, H=FRT_COPRODUCTS["H"][:2])
    checks = check_twist_produces(f_super_fund() * f_jordanian(f, f), rules, f, f)
    assert [c.passed for c in checks] == [True, True, True, False]
    v, w = f.image("V"), f.image("W")
    count = len(list(gkron(w, v).entries()))
    assert count and checks[3].detail == "residual has %d nonzero entries" % count


def test_qcoproduct_cross_term():
    f = fundamental_rep()
    rep = check_qcoproduct_xplus(f, f)
    assert rep.passed
    coeff = rep.checks[0].data["coefficient"]
    # the solved coefficient is q^(1/2) - q^(-1/2) = (s^2 - 1)/s
    assert coeff == "(1*s^2 - 1) / (1*s)"


def test_qcoproduct_cross_term_spin1():
    rep = check_qcoproduct_xplus(irrep(1), irrep(1))
    assert rep.passed


def test_qcoproduct_cross_term_rejects_non_proportional_residual(monkeypatch):
    # with the s^-h (x) v+ term doubled, the residual carries 3 q^-h (x) v+^2
    f = fundamental_rep()
    monkeypatch.setitem(
        Q_DEFORMED.rules,
        "v+",
        [(1, "v+", "s^h"), (2, "s^-h", "v+")],
    )
    rep = check_qcoproduct_xplus(f, f)
    assert not rep.passed
    assert [c.detail for c in rep.checks] == ["no single coefficient"]

"""The FRT exchange relation and the generator coproducts."""

from fractions import Fraction

from qosp import scalar as sc
from qosp.coproducts import (
    Q_DEFORMED,
    TensorTerm,
    check_l_coproducts,
    check_qcoproduct_xplus,
    frt_check,
    lplus_matrix,
)
from qosp.gmatrix import GradedMatrix
from qosp.matrices import contract_r
from qosp.reps import fundamental_rep, irrep
from qosp.scalar import ZERO


def test_lplus_fundamental_equals_contracted_r():
    # in the fundamental the generator matrix is the contracted R-matrix
    assert lplus_matrix(fundamental_rep()) == contract_r()


def test_frt_fundamental():
    assert frt_check(fundamental_rep()).passed


def test_frt_spin_one():
    assert frt_check(irrep(1)).passed


def test_frt_fails_on_a_perturbed_generator_matrix(monkeypatch):
    import qosp.coproducts as coproducts_mod

    def perturbed(r):
        l_mat = lplus_matrix(r)
        return l_mat + GradedMatrix.from_entries(l_mat.parity, {(0, 1): sc.xi_var()})

    monkeypatch.setattr(coproducts_mod, "lplus_matrix", perturbed)
    assert not frt_check(fundamental_rep()).passed
    assert not frt_check(irrep(1)).passed


def test_frt_trivial_at_xi_zero():
    r = irrep(1)
    l_mat = lplus_matrix(r).substitute({"xi": ZERO})
    assert l_mat.is_identity()


def test_l_coproducts():
    assert check_l_coproducts().passed


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
        [TensorTerm(sc.ONE, ["v+"], ["s^h"]), TensorTerm(sc.rational(2), ["s^-h"], ["v+"])],
    )
    rep = check_qcoproduct_xplus(f, f)
    assert not rep.passed
    assert [c.detail for c in rep.checks] == ["no single coefficient"]

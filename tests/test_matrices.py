"""Reconstruction of the fixed matrices and the matrix-level identities."""

import json
from fractions import Fraction

import pytest

from fixture_files import write_fixture
from koszul_rules import gkron_rule
from qosp import scalar as sc
from qosp.gmatrix import (
    GradedMatrix,
    check_gybe,
    flip_legs,
    gkron,
    inverse,
    to_json_dict,
)
from qosp.matrices import (
    FIXTURE_NAMES,
    check_factorization,
    check_golden,
    check_lplus_slices,
    check_new_entries_proportional,
    check_triangular,
    contract_r,
    f_jordanian,
    f_super_fund,
    kr_rmatrix,
    load_fixture,
    m_matrix,
    named_matrix,
    transform_r,
)
from qosp.reps import fundamental_rep, irrep
from qosp.scalar import ONE, ZERO, rational
from x_entries import X_POSITIONS, x_entries


def test_kr_entries():
    r = kr_rmatrix()
    assert r[0, 0] == sc.q_var()
    assert r[2, 6] == sc.omega() * (ONE + sc.q_var(-1))
    assert r[2, 4] == -(sc.omega() / sc.s_var())
    assert r.substitute({"s": ONE}).is_identity()


def test_m_matrix_unipotent():
    m = m_matrix()
    assert m.substitute({"theta": ZERO}).is_identity()
    assert (m * inverse(m)).is_identity()
    n = m - m.substitute({"theta": ZERO})
    assert (n * n).is_zero()


def test_transform_entries():
    tr = transform_r()
    xs = x_entries()
    for name, (i, j) in X_POSITIONS.items():
        assert tr[i, j] == xs[name], name
    assert tr.substitute({"theta": ZERO}) == kr_rmatrix()
    assert tr.nonzero_count() == kr_rmatrix().nonzero_count() + 9


def test_transform_reversed_conjugation_negative_control():
    # G^-1 R G, the other conjugation, does not give the x-entries
    g = gkron(m_matrix(), m_matrix())
    reversed_tr = inverse(g) * kr_rmatrix() * g
    xs = x_entries()
    assert reversed_tr[0, 2] != xs["x1"]
    assert reversed_tr != transform_r()


def test_new_entries_divisible_by_omega_theta():
    assert check_new_entries_proportional().passed


def test_new_entries_check_rejects_a_pole_at_s_one(monkeypatch):
    """theta/omega^2 divides by omega*theta, but the quotient has a pole at s = 1."""
    import qosp.matrices as matrices_mod

    tr = transform_r()
    extra = sc.theta_var() * sc.inv(sc.omega() * sc.omega())
    bad = tr + GradedMatrix.from_entries(tr.parity, {(0, 1): extra})
    monkeypatch.setattr(matrices_mod, "transform_r", lambda: bad)
    chk = check_new_entries_proportional()
    assert not chk.passed
    assert chk.detail == "quotient has a pole at s = 1"


def test_new_entries_check_rejects_an_entry_without_theta(monkeypatch):
    """omega alone at a new position has no theta factor to divide out."""
    import qosp.matrices as matrices_mod

    tr = transform_r()
    bad = tr + GradedMatrix.from_entries(tr.parity, {(0, 2): sc.omega()})
    monkeypatch.setattr(matrices_mod, "transform_r", lambda: bad)
    chk = check_new_entries_proportional()
    assert not chk.passed
    assert chk.detail == "inexact division"


def test_transform_conjugator_sign_indifferent():
    # M is parity-even, so every Koszul rule gives the same M (x) M
    m = m_matrix()
    images = {
        conv: gkron_rule(m, m, conv)
        for conv in ("first_col", "first_row", "second_row", "second_col")
    }
    assert all(img == images["first_col"] for img in images.values())


def test_contracted_matrix():
    r = contract_r()
    xi = sc.xi_var()
    assert r[0, 8] == (xi * xi).scale(Fraction(1, 2))
    assert r[1, 5] == -xi
    assert r[0, 2] == -xi
    assert r.substitute({"xi": ZERO}).is_identity()
    # already s-free: a second limit pass changes nothing
    again = r.map_entries(sc.limit_at_one)
    assert again == r


def test_even_twist_matrix():
    fj = f_jordanian()
    xi = sc.xi_var()
    assert fj[0, 2] == xi
    assert fj[6, 8] == -xi
    assert fj.nonzero_count() == 11
    assert fj.substitute({"xi": ZERO}).is_identity()


def test_even_twist_mixed_pair_unipotent():
    f = fundamental_rep()
    r1 = irrep(1)
    fj = f_jordanian(f, r1)
    assert fj.dim == 15
    n = fj - fj.substitute({"xi": ZERO})
    power = n
    for _ in range(16):
        if power.is_zero():
            break
        power = power * n
    assert power.is_zero()


def test_odd_twist_matrix():
    fs = f_super_fund()
    xi = sc.xi_var()
    assert fs[0, 4] == xi.scale(Fraction(1, 2))
    assert fs[0, 8] == -(xi * xi).scale(Fraction(1, 8))
    assert flip_legs(fs, fundamental_rep().parity) * fs == gkron(
        fundamental_rep().identity, fundamental_rep().identity
    )


def test_golden_fixtures_match():
    for name in FIXTURE_NAMES:
        assert check_golden(name).passed, name


def test_fixture_denominators_univariate():
    for name in FIXTURE_NAMES:
        m = load_fixture(name)
        for _, _, v in m.entries():
            assert v.den.is_s_only()


def test_triangularity():
    v = (0, 1, 0)
    assert check_triangular(contract_r(), v, "sjr").passed
    assert not check_triangular(kr_rmatrix(), v, "kr").passed
    from qosp.gmatrix import GradedMatrix, kron_parity

    ident = GradedMatrix.identity(kron_parity((0, 1, 0), (0, 1, 0)))
    assert check_triangular(ident, v, "identity").passed


def test_factorization_report():
    rep = check_factorization()
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "F21(s) = F(s)^-1" in names


def test_lplus_slices():
    assert check_lplus_slices().passed


def test_gybe_all_three():
    v = (0, 1, 0)
    assert check_gybe(kr_rmatrix(), v, "gybe kr").passed
    assert check_gybe(transform_r(), v, "gybe transformed").passed
    assert check_gybe(contract_r(), v, "gybe sjr").passed


def test_fixture_json_shape():
    d = to_json_dict(contract_r())
    assert d["dim"] == 9
    assert d["parities"] == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert all(len(e) == 3 for e in d["entries"])


def test_named_matrix_records():
    # the variables each named matrix depends on
    variables = {
        "kr": frozenset({"s"}),
        "transformed": frozenset({"s", "theta"}),
        "sjr": frozenset({"xi"}),
        "fj": frozenset({"xi"}),
        "fs": frozenset({"xi"}),
    }
    assert set(variables) == set(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        value = named_matrix(name)
        assert value == named_matrix(name)
        # declared variables are exactly the ones that occur
        seen = set()
        for _, _, v in value.entries():
            for (es, eth, exi) in v.num.terms:
                if eth:
                    seen.add("theta")
                if exi:
                    seen.add("xi")
            if v.den != sc.Poly.const(1):
                seen.add("s")
            for (es, _, _) in v.num.terms:
                if es:
                    seen.add("s")
        assert seen <= variables[name]


def test_parameterless_builders_are_memoized():
    for build in (kr_rmatrix, transform_r, contract_r, f_super_fund):
        assert build() is build()
    assert named_matrix("sjr") is contract_r()
    # a module is built once per spin; module-keyed builds stay uncached
    assert irrep(1) is irrep(Fraction(1))
    assert fundamental_rep() is irrep(Fraction(1, 2))
    fund = fundamental_rep()
    assert f_jordanian(fund, fund) is not f_jordanian(fund, fund)


def test_fixture_directory_override(tmp_path, monkeypatch):
    import qosp.matrices as mats

    path = write_fixture("kr", kr_rmatrix(), directory=str(tmp_path))
    monkeypatch.setenv("QOSP_FIXTURES", str(tmp_path))
    assert mats.fixture_dir() == str(tmp_path)
    assert mats.load_fixture("kr") == kr_rmatrix()
    monkeypatch.delenv("QOSP_FIXTURES")
    assert mats.fixture_dir().endswith("fixtures")

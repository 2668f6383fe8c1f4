"""Module construction invariants and the FRT generator relations."""

import random
import re
from fractions import Fraction

import pytest

from qosp import scalar as sc
from qosp.gmatrix import GradedMatrix, exp_nilpotent, inverse
from qosp.reps import (
    Representation,
    RepresentationError,
    check_lt_relations,
    fundamental_rep,
    irrep,
)
from qosp.scalar import ONE, ZERO, rational


def test_fundamental_matrices():
    f = fundamental_rep()
    half = rational(Fraction(1, 2))
    assert f.dim == 3
    assert f.parity == (0, 1, 0)
    assert [f.h[i, i] for i in range(3)] == [ONE, ZERO, -ONE]
    assert f.v_plus == GradedMatrix.from_entries(f.parity, {(0, 1): half, (1, 2): half})
    assert f.v_minus == GradedMatrix.from_entries(
        f.parity, {(1, 0): -half, (2, 1): half}
    )
    assert f.x_plus == GradedMatrix.from_entries(f.parity, {(0, 2): ONE})
    x_minus = (f.v_minus * f.v_minus).scale(-4)
    assert x_minus == GradedMatrix.from_entries(f.parity, {(2, 0): ONE})


def test_irrep_half_equals_fundamental():
    f = fundamental_rep()
    r = irrep(Fraction(1, 2))
    assert r.h == f.h and r.v_plus == f.v_plus and r.v_minus == f.v_minus


def test_irrep_dimensions_and_parities():
    r = irrep(1)
    assert r.dim == 5
    assert r.parity == (0, 1, 0, 1, 0)
    assert irrep(Fraction(3, 2)).dim == 7
    assert irrep(2).dim == 9


def test_unsupported_spin_rejected():
    with pytest.raises(RepresentationError):
        irrep(Fraction(5, 2))


def test_verify_names_the_first_failing_relation():
    """Doubling v- keeps [h, v-] = -v- and breaks the anticommutator."""
    f = fundamental_rep()
    f.verify()
    bad = Representation(f.spin, f.h, f.v_plus, f.v_minus.scale(2), f.parity)
    with pytest.raises(RepresentationError, match=re.escape("relation {v+, v-} = -h/4 fails")):
        bad.verify()


def test_casimir_style_identity():
    for spin in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        r = irrep(spin)
        quad = r.v_plus * r.v_minus + r.v_minus * r.v_plus + r.h.scale(Fraction(1, 4))
        assert quad.is_zero()
        assert r.h * r.x_plus - r.x_plus * r.h == r.x_plus.scale(2)


def test_nilpotency_index_of_raising_generator():
    for spin in (Fraction(1, 2), 1, Fraction(3, 2)):
        r = irrep(spin)
        power = r.identity
        for _ in range(r.dim - 1):
            power = power * r.v_plus
        assert not power.is_zero()
        assert (power * r.v_plus).is_zero()


def test_xplus_powers_spin_one():
    r = irrep(1)
    x2 = r.x_plus * r.x_plus
    assert x2.nonzero_count() == 1  # only the corner survives
    assert (x2 * r.x_plus).is_zero()


def test_vplus_cube_rank_spin_one():
    r = irrep(1)
    v3 = r.v_plus * r.v_plus * r.v_plus
    assert v3.nonzero_count() == 2  # the three-step shift keeps two entries
    v4 = v3 * r.v_plus
    assert v4.nonzero_count() == 1
    assert (v4 * r.v_plus).is_zero()


def test_image_of_a_word_is_the_product_of_its_atoms():
    r = irrep(1)
    assert r.image([]) == r.identity
    assert r.image(()) == r.identity
    assert r.image(["v+"]) == r.v_plus
    assert r.image(["h", "v+", "E^-2"]) == r.h * r.v_plus * r.e_power(-2)
    assert r.image(("v-", "s^h", "X+")) == r.v_minus * r.s_power_h(1) * r.x_plus


def test_word_images_are_built_once():
    r = irrep(1)
    for word in (("v+", "X+"), ["h", "v+", "E^-2"], ("v+", "X+", "X+", "X+")):
        assert r.image(word) is r.image(word)


def test_sigma_and_exponentials():
    xi = sc.xi_var()
    for spin in (Fraction(1, 2), 1):
        r = irrep(spin)
        e = r.e_power(1)
        rhs = r.identity + r.x_plus.scale(2).map_entries(lambda a: a * xi)
        assert e * e == rhs
        assert r.e_power(-1) == inverse(e)
        assert exp_nilpotent(r.sigma.scale(-1)) == inverse(e)
        at_zero = r.sigma.substitute({"xi": ZERO})
        assert at_zero.is_zero()
        assert e.substitute({"xi": ZERO}).is_identity()


def test_fundamental_sigma_values():
    f = fundamental_rep()
    xi = sc.xi_var()
    assert f.sigma == GradedMatrix.from_entries(f.parity, {(0, 2): xi})
    assert f.e_power(1) == f.identity + GradedMatrix.from_entries(
        f.parity, {(0, 2): xi}
    )


def test_lt_generators_fundamental():
    f = fundamental_rep()
    xi = sc.xi_var()
    cap_h, e, v, w = f.lt_generators()
    assert w == GradedMatrix.from_entries(f.parity, {(0, 1): xi, (1, 2): xi})
    assert v == GradedMatrix.from_entries(f.parity, {(0, 1): -xi, (1, 2): -xi})
    assert cap_h == GradedMatrix.from_entries(
        f.parity,
        {(0, 0): xi, (2, 2): -xi, (0, 2): (xi * xi).scale(Fraction(1, 2))},
    )
    for m in (cap_h, e, v, w):
        at_zero = m.substitute({"xi": ZERO})
        if m is e:
            assert at_zero.is_identity()
        else:
            assert at_zero.is_zero()


def test_lt_entries_polynomial_in_xi():
    for spin in (Fraction(1, 2), 1, Fraction(3, 2)):
        r = irrep(spin)
        for m in r.lt_generators():
            for _, _, val in m.entries():
                assert val.den.is_s_only()
                assert val.den == sc.Poly.const(1)


def test_lt_relations_pass():
    for spin, text in ((Fraction(1, 2), "1/2"), (1, "1")):
        rep = check_lt_relations(irrep(spin))
        assert rep.passed and rep.name == "lt-relations spin " + text


def test_lt_relation_failure_names_its_entries():
    """A stray even entry (1, 3) in v+ breaks [H, V] at that entry alone."""
    f = fundamental_rep()
    stray = GradedMatrix.from_entries(f.parity, {(0, 2): rational(3)})
    bad = Representation(f.spin, f.h, f.v_plus + stray, f.v_minus, f.parity)
    cap_h, e, v, w = bad.lt_generators()
    residual = cap_h * v - v * cap_h - (v * (bad.e_power(-1) - e) - w).scale(sc.xi_var())
    explicit = [(i + 1, j + 1, sc.format_scalar(x)) for i, j, x in residual.entries()]
    assert explicit == [(1, 3, "-6*xi^2")]
    rep = check_lt_relations(bad)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == ["[H, V] = xi (V (E^-1 - E) - W)"]
    assert failed[0].detail == "residual has 1 nonzero entries"
    assert failed[0].data == {"nonzero": explicit}
    assert all(c.data == {"nonzero": []} for c in rep.checks if c.passed)


def rescaled(r, lam):
    """Gauge transform v+ -> v+/lam, v- -> lam v-; same module."""
    lam = Fraction(lam)
    return Representation(
        r.spin, r.h, r.v_plus.scale(1 / lam), r.v_minus.scale(lam), r.parity
    )


def test_lt_relations_gauge_independent():
    rng = random.Random(2718)
    r = irrep(1)
    for _ in range(5):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert check_lt_relations(rescaled(r, lam)).passed


def test_e_inverse_two_ways():
    for spin in (Fraction(1, 2), 1, Fraction(3, 2)):
        r = irrep(spin)
        series = exp_nilpotent(r.sigma.scale(-1))
        assert series == inverse(r.e_power(1))

"""Module construction invariants and the FRT generator relations."""

import random
import re
from fractions import Fraction

import pytest

from qosp import gmatrix
from qosp import scalar as sc
from qosp.gmatrix import GradedMatrix, exp_nilpotent
from qosp.reps import (
    DEFINED_ATOMS,
    LT_RELATIONS,
    OSP_RELATIONS,
    Representation,
    RepresentationError,
    check_lt_relations,
    fundamental_rep,
    irrep,
)
from relation_oracle import defined_atoms, lt_residuals, osp_residuals
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
    assert f.image("X+") == GradedMatrix.from_entries(f.parity, {(0, 2): ONE})
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


@pytest.mark.parametrize(
    "spin", [0, Fraction(-1, 2), Fraction(1, 3), Fraction(7, 3), Fraction(5, 4)], ids=str
)
def test_spin_that_is_not_a_positive_half_integer_rejected(spin):
    with pytest.raises(RepresentationError, match="is not a positive half-integer"):
        irrep(spin)


@pytest.mark.parametrize("spin, dim", [(Fraction(5, 2), 11), (3, 13)], ids=["5half", "3"])
def test_irrep_past_the_command_line_spins(spin, dim):
    """irrep builds and verifies a module at any positive half-integer spin."""
    r = irrep(spin)
    assert (r.spin, r.dim) == (spin, dim)
    r.verify()


def test_verify_names_the_first_failing_relation():
    """Doubling v- keeps [h, v-] = -v- and breaks the anticommutator."""
    f = fundamental_rep()
    f.verify()
    bad = Representation(f.spin, f.h, f.v_plus, f.v_minus.scale(2))
    with pytest.raises(RepresentationError, match=re.escape("relation {v+, v-} = -h/4 fails")):
        bad.verify()


def test_casimir_style_identity():
    for spin in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        r = irrep(spin)
        quad = r.v_plus * r.v_minus + r.v_minus * r.v_plus + r.h.scale(Fraction(1, 4))
        assert quad.is_zero()
        assert r.h * r.image("X+") - r.image("X+") * r.h == r.image("X+").scale(2)


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
    x2 = r.image("X+") * r.image("X+")
    assert x2.nonzero_count() == 1  # only the corner survives
    assert (x2 * r.image("X+")).is_zero()


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
    assert r.image(["h", "v+", "E^-2"]) == r.h * r.v_plus * r.image("E^-2")
    assert r.image(("v-", "s^h", "X+")) == r.v_minus * r.image("s^h") * r.image("X+")


def test_word_images_are_built_once():
    r = irrep(1)
    for word in (("v+", "X+"), ["h", "v+", "E^-2"], ("v+", "X+", "X+", "X+")):
        assert r.image(word) is r.image(word)


def test_each_element_has_one_object():
    r = irrep(1)
    assert r.image("E") is r.image("E^1")
    assert r.image("X+") is r.image(("X+",))
    assert r.image("X+") == r.image(("v+", "v+")).scale(4)


@pytest.mark.parametrize("atom", ["w-", "E^x", "E^"])
def test_unknown_atom_is_named(atom):
    with pytest.raises(RepresentationError, match=re.escape("unknown atom %r" % atom)):
        irrep(1).image(("v+", atom))


def test_s_power_h_needs_integer_exponents():
    """A diagonal h with a half-integer entry has no s**h in the field."""
    parity = (0, 1)
    half = rational(Fraction(1, 2))
    h = GradedMatrix.from_entries(parity, {(0, 0): half, (1, 1): -half})
    odd = Representation(Fraction(1, 4), h, GradedMatrix.from_entries(parity, {}), None)
    with pytest.raises(RepresentationError, match=re.escape("s**h needs integer exponents")):
        odd.image("s^h")


def test_sigma_and_exponentials():
    xi = sc.xi_var()
    for spin in (Fraction(1, 2), 1):
        r = irrep(spin)
        e = r.image("E^1")
        rhs = r.identity + r.image("X+").scale(2).map_entries(lambda a: a * xi)
        assert e * e == rhs
        assert (r.image("E^-1") * e).is_identity() and (e * r.image("E^-1")).is_identity()
        assert exp_nilpotent(r.image("sigma").scale(-1)) == r.image("E^-1")
        at_zero = r.image("sigma").substitute({"xi": ZERO})
        assert at_zero.is_zero()
        assert e.substitute({"xi": ZERO}).is_identity()


def test_fundamental_sigma_values():
    f = fundamental_rep()
    xi = sc.xi_var()
    assert f.image("sigma") == GradedMatrix.from_entries(f.parity, {(0, 2): xi})
    assert f.image("E^1") == f.identity + GradedMatrix.from_entries(
        f.parity, {(0, 2): xi}
    )


def test_lt_generators_fundamental():
    f = fundamental_rep()
    xi = sc.xi_var()
    cap_h, e, v, w = map(f.image, "HEVW")
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
        for m in map(r.image, "HEVW"):
            for _, _, val in m.entries():
                assert all(es == 0 and eth == 0 for es, eth, _ in val.terms)


def test_lt_relations_pass():
    for spin, text in ((Fraction(1, 2), "1/2"), (1, "1")):
        rep = check_lt_relations(irrep(spin))
        assert rep.passed and rep.name == "lt-relations spin " + text


def test_lt_relation_failure_names_its_entries():
    """A stray even entry (1, 3) in v+ breaks [H, V] at that entry alone."""
    f = fundamental_rep()
    stray = GradedMatrix.from_entries(f.parity, {(0, 2): rational(3)})
    bad = Representation(f.spin, f.h, f.v_plus + stray, f.v_minus)
    cap_h, e, v, w = map(bad.image, "HEVW")
    residual = cap_h * v - v * cap_h - (v * (bad.image("E^-1") - e) - w).scale(sc.xi_var())
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
    return Representation(r.spin, r.h, r.v_plus.scale(1 / lam), r.v_minus.scale(lam))


def test_lt_relations_gauge_independent():
    rng = random.Random(2718)
    r = irrep(1)
    for _ in range(5):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert check_lt_relations(rescaled(r, lam)).passed


def test_e_inverse_two_ways():
    for spin in (Fraction(1, 2), 1, Fraction(3, 2)):
        r = irrep(spin)
        series = exp_nilpotent(r.image("sigma").scale(-1))
        assert (series * r.image("E^1")).is_identity() and (r.image("E^1") * series).is_identity()


def _stray(slot):
    """The fundamental with a stray entry 3 in v+ at (1, 3) or in v- at (3, 1)."""
    f = fundamental_rep()
    v_plus, v_minus = f.v_plus, f.v_minus
    if slot == "v+":
        v_plus = v_plus + GradedMatrix.from_entries(f.parity, {(0, 2): rational(3)})
    else:
        v_minus = v_minus + GradedMatrix.from_entries(f.parity, {(2, 0): rational(3)})
    return Representation(f.spin, f.h, v_plus, v_minus)


@pytest.mark.parametrize("slot", ["v+", "v-"])
def test_word_sum_tables_match_the_written_out_relations(slot):
    """Each table entry is the hand-written residual, also where it is nonzero.

    On a good module every residual is zero, so only a module that breaks
    the relations can tell a dropped or mistyped term; the stray v+ entry
    breaks [h, v+], {v+, v-} and [H, V], the stray v- entry [h, v-] and
    {v+, v-}.
    """
    m = _stray(slot)
    for table, reference in ((OSP_RELATIONS, osp_residuals), (LT_RELATIONS, lt_residuals)):
        written = reference(m)
        assert [n for n, _ in table] == [n for n, _ in written]
        for (n, terms), (_, residual) in zip(table, written):
            assert m.word_sum(terms) == residual, (slot, n)
    broken = {n for n, residual in osp_residuals(m) + lt_residuals(m) if not residual.is_zero()}
    assert broken == {
        "v+": {"[h, v+] = v+", "{v+, v-} = -h/4", "[H, V] = xi (V (E^-1 - E) - W)"},
        "v-": {"[h, v-] = -v-", "{v+, v-} = -h/4"},
    }[slot]


@pytest.mark.parametrize("module", [fundamental_rep, lambda: _stray("v+")], ids=["fund", "v+"])
def test_defined_atoms_match_the_written_out_atoms(module):
    m = module()
    written = defined_atoms(m)
    assert sorted(DEFINED_ATOMS) == sorted(n for n, _ in written)
    for atom, value in written:
        assert m.word_sum(DEFINED_ATOMS[atom]) == value, atom
        assert m.image(atom) == value, atom


def test_word_sum_calls_scale_for_no_weight(monkeypatch):
    """Every weight, rational or with xi, is folded into the one integer sum; none calls scale."""
    r = irrep(1)
    x, vv = r.image("X+"), r.image(("v+", "v+"))
    xi = sc.xi_var()
    diff, mixed = x - vv, vv.scale(Fraction(-7, 2))
    with_xi = vv.map_entries(lambda a: a * xi) - x
    scaled = []
    plain_scale = GradedMatrix.scale
    monkeypatch.setattr(GradedMatrix, "scale", lambda m, c: scaled.append(c) or plain_scale(m, c))
    assert r.word_sum([(1, "X+"), (-1, ("v+", "v+"))]) == diff
    assert r.word_sum([(-1, "X+"), (Fraction(1, 2), ("v+", "v+"))]) == mixed
    assert r.word_sum([(rational(-1), "X+"), (rational(Fraction(1, 2)), ("v+", "v+"))]) == mixed
    assert r.word_sum([(-1, "X+"), (xi, ("v+", "v+"))]) == with_xi
    assert scaled == []
    assert r.word_sum([]) == GradedMatrix.from_entries(r.parity, {})


def test_word_sum_with_xi_weights_reduces_once(monkeypatch):
    """H = xi (h E^1) - 2 xi^2 (v+ v+ E^-1) is one sum with one reduction, no scaled copies."""
    r = irrep(1)
    h = r.image("H")
    for _, word in DEFINED_ATOMS["H"]:
        r.image(word)
    reductions = []
    canonical = gmatrix._canonical

    def counted(*args):
        reductions.append(args)
        return canonical(*args)

    monkeypatch.setattr(gmatrix, "_canonical", counted)
    assert r.word_sum(DEFINED_ATOMS["H"]) == h
    assert len(reductions) == 1

"""Field arithmetic, canonical form, substitution and the s -> 1 limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosp import scalar as sc
from qosp.scalar import ONE, ZERO, Scalar, ScalarError, rational
from scalar_oracle import format_fraction, stored_form
from xi_oracle import drop_xi_above, poly_drop_xi_above, xi_coefficient


def test_omega_times_inverse_is_one():
    w = sc.omega()
    assert w * sc.inv(w) == ONE


def test_q_plus_qinv():
    got = sc.q_var() + sc.q_var(-1)
    assert sc.format_scalar(got) == "(1*s^4 + 1) / (1*s^2)"


def test_b_times_theta():
    b = -sc.omega() / sc.s_var()
    got = b * sc.theta_var()
    assert sc.format_scalar(got) == "(-1*s^4*theta + 1*theta) / (1*s^3)"


def test_substitute_contraction_binding():
    w = sc.omega()
    xi = sc.xi_var()
    assert sc.substitute(w * sc.theta_var(), {"theta": xi / w}) == xi


def test_substitute_empty_is_identity():
    q = sc.q_var()
    assert sc.substitute(q, {}) == q


def test_substitute_squared_cross_entry():
    w = sc.omega()
    th = sc.theta_var()
    xi = sc.xi_var()
    x4 = (w * th) ** 2 / (ONE + sc.q_var())
    got = sc.substitute(x4, {"theta": xi / w})
    assert sc.format_scalar(got) == "(1*xi^2) / (1*s^2 + 1)"
    assert sc.limit_at_one(got) == (xi * xi).scale(Fraction(1, 2))


def test_limit_removable_singularity():
    got = sc.limit_at_one((sc.q_var() - ONE) / (sc.s_var() - ONE))
    assert got == rational(2)


def test_limit_pole_raises():
    with pytest.raises(ScalarError, match="limit does not exist: pole at s = 1"):
        sc.limit_at_one(ONE / (sc.s_var() - ONE))


def test_limit_requires_theta_free():
    with pytest.raises(ScalarError):
        sc.limit_at_one(sc.theta_var())


def test_inverse_of_zero_raises():
    with pytest.raises(ScalarError):
        sc.inv(ZERO)


def test_inverse_with_xi_in_numerator_raises():
    with pytest.raises(ScalarError):
        sc.inv(ONE + sc.xi_var())


def test_substitute_vanishing_denominator_raises():
    a = ONE / (sc.q_var() - ONE)
    with pytest.raises(ScalarError):
        sc.substitute(a, {"s": ONE})


def _random_scalar(rng, invertible=False):
    num_terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (
            rng.randint(0, 3),
            0 if invertible else rng.randint(0, 2),
            0 if invertible else rng.randint(0, 2),
        )
        num_terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    den = sc.Poly.monomial(1, es=rng.randint(0, 3)) + sc.Poly.const(rng.randint(0, 2))
    num = sc.Poly(dict((k, v) for k, v in num_terms.items() if v))
    if num.is_zero() and invertible:
        num = sc.Poly.const(1)
    return Scalar(num, den)


def test_ring_laws_randomized():
    rng = random.Random(20240817)
    for _ in range(220):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == ZERO
    for _ in range(220):
        a = _random_scalar(rng, invertible=True)
        if a.is_zero():
            continue
        assert a * sc.inv(a) == ONE


def test_canonical_form_idempotent():
    rng = random.Random(99)
    for _ in range(220):
        a = _random_scalar(rng)
        again = Scalar(a.num, a.den)
        assert again == a
        assert Scalar(a.num * sc.Poly.const(3), a.den * sc.Poly.const(3)) == a


def test_denominator_stays_monic_univariate():
    rng = random.Random(5)
    for _ in range(220):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        prod = a * b
        assert prod.den.is_s_only()
        dense = prod.den.to_dense_s()
        assert dense[-1] == 1
        assert dense[0] != 0  # coprime to s: powers of s live in the numerator


def test_limit_is_multiplicative_and_additive():
    rng = random.Random(31337)
    count = 0
    while count < 200:
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        a = Scalar(poly_drop_xi_above(a.num, 2), a.den)
        if not a.theta_free() or not b.theta_free():
            continue
        try:
            la, lb = sc.limit_at_one(a), sc.limit_at_one(b)
        except ScalarError:
            continue
        assert sc.limit_at_one(a * b) == la * lb
        assert sc.limit_at_one(a + b) == la + lb
        count += 1


def test_limit_is_the_value_at_one():
    """A reduced scalar's limit is its value at s = 1, unless den(1) == 0: a pole.

    The random denominators never vanish at s = 1; dividing by s - 1
    gives a pole unless the numerator already vanishes there.
    """
    rng = random.Random(1729)
    values = poles = 0
    while values < 100 or poles < 100:
        a = _random_scalar(rng)
        if not a.theta_free():
            continue
        for b in (a, a / (sc.s_var() - ONE)):
            if sum(b.den.to_dense_s()):
                assert sc.limit_at_one(b) == sc.substitute(b, {"s": ONE})
                values += 1
            else:
                with pytest.raises(ScalarError, match="limit does not exist: pole at s = 1"):
                    sc.limit_at_one(b)
                poles += 1


def test_format_parse_round_trip():
    rng = random.Random(404)
    for _ in range(220):
        a = _random_scalar(rng)
        assert sc.parse_scalar(sc.format_scalar(a)) == a


@pytest.mark.parametrize("text", ["zeta+1", "2*zeta", "s^x", "2x*s"])
def test_parse_rejects_malformed_scalar(text):
    with pytest.raises(ScalarError):
        sc.parse_scalar(text)


def test_xi_coefficient_and_truncation():
    xi = sc.xi_var()
    a = ONE + xi.scale(3) + (xi * xi) * sc.q_var()
    assert xi_coefficient(a, 0) == ONE
    assert xi_coefficient(a, 1) == rational(3)
    assert xi_coefficient(a, 2) == sc.q_var()
    assert drop_xi_above(a, 1) == ONE + xi.scale(3)


_POLYS = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4,
).map(lambda terms: sc.Poly({k: v for k, v in terms.items() if v}))


# a freshly built unit numerator, so the unit fast path meets ones other than ONE
_FACTORS = st.one_of(_POLYS, st.builds(sc.Poly.const, st.just(1)))


@settings(max_examples=200, deadline=None)
@given(_FACTORS, _FACTORS)
def test_denominator_one_fast_path_matches_normalize(p, q):
    """Sums and products of denominator-1 scalars skip _normalize.

    Scalar(num, den) with a freshly built den = 1 always runs the general
    _normalize, so it is the reference for the fast path; the results keep
    the shared unit denominator, so the fast path applies to them again.
    """
    a, b = Scalar(p), Scalar(q)
    assert a.den is b.den
    for fast, num in ((a * b, p * q), (a + b, p + q), (a - b, p - q)):
        general = Scalar(num, sc.Poly.const(1))
        assert fast == general
        assert sc.format_scalar(fast) == sc.format_scalar(general)
        assert fast.den is a.den


def test_powers_of_s_need_no_euclid(monkeypatch):
    """omega and s**-k have denominator 1, so their sums and products skip the gcd."""
    calls = []
    gcd = sc._dense_gcd
    monkeypatch.setattr(sc, "_dense_gcd", lambda u, v: calls.append(1) or gcd(u, v))
    th = sc.theta_var()
    values = [
        sc.omega() * th,
        sc.omega() + sc.s_var(-1),
        sc.s_var(-3) * (sc.s_var() + th),
    ]
    assert calls == []
    assert [sc.format_scalar(v) for v in values] == [
        "(1*s^4*theta - 1*theta) / (1*s^2)",
        "(1*s^4 + 1*s - 1) / (1*s^2)",
        "(1*s + 1*theta) / (1*s^3)",
    ]


def _s_poly(coeffs):
    return sc.Poly.from_dense_s([Fraction(c) for c in coeffs])


# the factors of omega = (s^4 - 1)/s^2, and one arbitrary factor
_OMEGA_FACTORS = ([0, 1], [-1, 1], [1, 1], [1, 0, 1])
_OTHER_FACTORS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any)


@settings(max_examples=200, deadline=None)
@given(
    _POLYS,
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    _OTHER_FACTORS,
)
def test_canonical_text_matches_polynomial_reduction(num, powers, other):
    """Laurent numerators print as the reduced fraction of polynomials.

    The reference clears negative powers of s from the numerator into the
    denominator and reduces the polynomial fraction with its s-content step
    and Euclid (tests/scalar_oracle.py).
    """
    den = _s_poly(other)
    for factor, n in zip(_OMEGA_FACTORS, powers):
        for _ in range(n):
            den = den * _s_poly(factor)
    k = max(0, -num.min_s_power())
    a = Scalar(num, den)
    text = sc.format_scalar(a)
    assert text == format_fraction(num.shift_s(k), den.shift_s(k))
    assert sc.parse_scalar(text) == a


def test_a_factor_equal_to_one_is_shared():
    """Times a one that is not the ONE singleton, the other factor comes back itself."""
    one = rational(3) * rational(Fraction(1, 3))
    assert one == ONE and one is not ONE
    a = sc.omega() * sc.theta_var()
    assert one * a is a and a * one is a
    b = ONE / (sc.s_var() + ONE)
    assert b.den != sc.Poly.const(1)
    assert one * b == b and b * one == b


def test_as_fraction_and_const_value_are_fractions():
    """Integral coefficients are stored as ints; these two read them as Fractions."""
    assert rational(3).num.terms == {(0, 0, 0): 3}
    assert type(rational(3).num.terms[(0, 0, 0)]) is int
    for value in (rational(3).as_fraction(), ZERO.num.const_value()):
        assert type(value) is Fraction
    assert rational(3).as_fraction() == 3 and ZERO.num.const_value() == 0


# polynomials built the way the package builds them, through Poly.monomial and +
_STORED_POLYS = st.lists(
    st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.integers(-3, 3),
        st.integers(0, 2),
        st.integers(0, 2),
    ),
    max_size=4,
).map(lambda terms: sum((sc.Poly.monomial(*t) for t in terms), sc.Poly()))
_STORED_SCALARS = st.builds(
    lambda num, den, power: Scalar(num, _s_poly(den) * sc.Poly.monomial(1, es=power)),
    _STORED_POLYS,
    _OTHER_FACTORS,
    st.integers(-2, 2),
)


def _results(a, b, c):
    """Scalars reached from a and b through every public operation."""
    out = [a + b, a - b, a * b, a.scale(c), sc.parse_scalar(sc.format_scalar(a))]
    if b.num.is_s_only() and not b.is_zero():
        out.append(sc.inv(b))
    contracted = sc.substitute(a, {"theta": sc.xi_var() / sc.omega()})
    out.append(contracted)
    theta_free = sc.substitute(a, {"theta": rational(c)})
    out.append(theta_free)
    for value in (sc.s_var(2), rational(c)):
        try:
            out.append(sc.substitute(a, {"s": value}))
        except ScalarError:
            pass  # the denominator vanishes identically there
    try:
        out.append(sc.limit_at_one(theta_free))
    except ScalarError:
        pass  # a pole at s = 1
    return out


@settings(max_examples=150, deadline=None)
@given(_STORED_SCALARS, _STORED_SCALARS, st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_every_operation_keeps_the_stored_coefficient_form(a, b, c):
    """Each coefficient is an int, or a Fraction with denominator > 1; never a float.

    Integral coefficients stored as ints print as their Fractions would,
    so the text still matches the polynomial-reduction reference.
    """
    for value in [a, b] + _results(a, b, c):
        assert stored_form(value), value.num.terms
        k = max(0, -value.num.min_s_power())
        reference = format_fraction(value.num.shift_s(k), value.den.shift_s(k))
        assert sc.format_scalar(value) == reference

"""Ring arithmetic, canonical form, substitution and the contraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qosp import scalar as sc
from qosp.gmatrix import GradedMatrix
from qosp.scalar import ONE, ZERO, ScalarError, rational
from scalar_oracle import exact_coefficients, format_fraction
from xi_oracle import drop_xi_above, xi_coefficient


def _monomial(es, eth=0, exi=0):
    """s**es theta**eth xi**exi, built through the package's own products."""
    out = sc.s_var(es) * sc.xi_var(exi)
    for _ in range(eth):
        out = out * sc.theta_var()
    return out


def _laurent(terms):
    """The sum of c s**es theta**eth xi**exi over the (c, es, eth, exi) terms."""
    return sum((_monomial(*key).scale(c) for c, *key in terms), ZERO)


def _power(a, n):
    out = ONE
    for _ in range(n):
        out = out * a
    return out


S_MINUS_ONE = sc.s_var() - ONE


def test_q_plus_qinv():
    got = sc.q_var() + sc.q_var(-1)
    assert sc.format_scalar(got) == "(1*s^4 + 1) / (1*s^2)"


def test_b_times_theta():
    b = -sc.omega() * sc.s_var(-1)
    got = b * sc.theta_var()
    assert sc.format_scalar(got) == "(-1*s^4*theta + 1*theta) / (1*s^3)"


def test_substitute_contraction_binding():
    """contract is theta = xi/omega and s -> 1; substitute binds rationals only."""
    w, th, xi = sc.omega(), sc.theta_var(), sc.xi_var()
    assert sc.contract(w * th) == xi
    assert sc.contract(w * w * th * th + w * th * xi) == (xi * xi).scale(2)
    # each part alone has a pole at s = 1, but xi**2/omega - xi**2/omega = 0
    assert sc.contract(th * xi - w * th * th) == ZERO
    with pytest.raises(ScalarError, match="not a plain rational"):
        sc.substitute(th, {"theta": xi})


def test_substitute_empty_is_identity():
    q = sc.q_var()
    assert sc.substitute(q, {}) == q


def test_substitute_squared_cross_entry():
    """x4 = (omega theta)**2 / (1 + q) is omega (1 - q**-1) theta**2 and contracts to xi**2/2."""
    w, th, xi, q = sc.omega(), sc.theta_var(), sc.xi_var(), sc.q_var()
    x4 = w * (ONE - sc.q_var(-1)) * th * th
    assert x4 * (ONE + q) == w * w * th * th
    assert sc.format_scalar(x4) == (
        "(1*s^6*theta^2 - 1*s^4*theta^2 - 1*s^2*theta^2 + 1*theta^2) / (1*s^4)"
    )
    assert sc.contract(x4) == (xi * xi).scale(Fraction(1, 2))


def test_limit_removable_singularity():
    """theta (q - 1) becomes xi (q - 1)/omega = xi s**2/(s**2 + 1): xi/2 at s = 1."""
    got = sc.contract(sc.theta_var() * (sc.q_var() - ONE))
    assert got == sc.xi_var().scale(Fraction(1, 2))


def test_limit_pole_raises():
    """theta/omega and theta**2/omega have a pole at s = 1."""
    th = sc.theta_var()
    for a in (th, sc.omega() * th * th, th + sc.omega() * th):
        with pytest.raises(ScalarError, match="limit does not exist: pole at s = 1"):
            sc.contract(a)


def test_inverse_of_zero_raises():
    with pytest.raises(ScalarError):
        sc.inv(ZERO)


def test_inverse_with_xi_in_numerator_raises():
    with pytest.raises(ScalarError):
        sc.inv(ONE + sc.xi_var())


@pytest.mark.parametrize("name", ["omega", "s+1", "theta", "xi s"])
def test_only_units_are_inverted(name):
    """The units of the ring are c * s**k; inv refuses every other scalar."""
    value = {
        "omega": sc.omega(),
        "s+1": sc.s_var() + ONE,
        "theta": sc.theta_var(),
        "xi s": sc.xi_var() * sc.s_var(),
    }[name]
    with pytest.raises(ScalarError, match="is not a unit c\\*s\\^k"):
        sc.inv(value)


def test_substitute_vanishing_denominator_raises():
    """s = 0 is a pole of every negative power of s, and of nothing else."""
    with pytest.raises(ScalarError, match="division by zero"):
        sc.substitute(sc.q_var(-1) + ONE, {"s": ZERO})
    assert sc.substitute(sc.q_var() + sc.theta_var(), {"s": ZERO}) == sc.theta_var()


def _random_scalar(rng, invertible=False):
    """A random Laurent scalar; with invertible, a random unit c * s**k."""
    if invertible:
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        return sc.s_var(rng.randint(-3, 3)).scale(c)
    terms = []
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 2))
        terms.append((Fraction(rng.randint(-5, 5), rng.randint(1, 4)), *key))
    return _laurent(terms)


def _random_contractible(rng):
    """A random scalar whose contraction exists: each theta**j part has (s - 1)**j s**-2j."""
    total = ZERO
    for j in range(rng.randint(0, 3)):
        r = _random_scalar(rng)
        r = sc.substitute(r, {"theta": rational(rng.randint(-2, 2))})
        total = total + _power(sc.theta_var() * S_MINUS_ONE * sc.s_var(-2), j) * r
    return total


def test_ring_laws_randomized():
    rng = random.Random(20240817)
    for _ in range(220):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == ZERO
    for _ in range(220):
        a = _random_scalar(rng, invertible=True)
        assert a * sc.inv(a) == ONE


def test_canonical_form_idempotent():
    """The terms map is the canonical form: a scalar rebuilt from its terms in any
    order, or parsed from its text over a denominator 3 s**4, equals it.  An
    integral coefficient held as an int or as the equal Fraction is the same
    scalar: equal, hashed and printed alike, and the same GradedMatrix entry."""
    rng = random.Random(99)
    integral = 0
    for _ in range(220):
        a = _random_scalar(rng)
        items = [(c, *key) for key, c in a.terms.items()]
        rng.shuffle(items)
        again = _laurent(items)
        assert again == a and hash(again) == hash(a)
        assert sc.format_scalar(again) == sc.format_scalar(a)
        cleared = sc.format_scalar(a * sc.s_var(4).scale(3))
        assert sc.parse_scalar("(%s) / (3*s^4)" % cleared) == a
        ints = sc.Scalar({k: c.numerator if c.denominator == 1 else c for k, c in a.terms.items()})
        fractions = sc.Scalar({k: Fraction(c) for k, c in ints.terms.items()})
        integral += sum(type(c) is int for c in ints.terms.values())
        assert fractions == ints and hash(fractions) == hash(ints)
        assert sc.format_scalar(fractions) == sc.format_scalar(ints)
        m_ints = GradedMatrix.from_entries((0, 1), {(0, 1): ints})
        m_fractions = GradedMatrix.from_entries((0, 1), {(0, 1): fractions})
        assert m_fractions == m_ints and repr(m_fractions) == repr(m_ints)
    assert integral > 100


def test_limit_is_multiplicative_and_additive():
    """contract is a ring map where it is defined."""
    rng = random.Random(31337)
    for _ in range(200):
        a = _random_contractible(rng)
        b = _random_contractible(rng)
        la, lb = sc.contract(a), sc.contract(b)
        assert sc.contract(a * b) == la * lb
        assert sc.contract(a + b) == la + lb


def test_limit_is_the_value_at_one():
    """A theta-free scalar contracts to its value at s = 1, and omega theta a to xi a(1)."""
    rng = random.Random(1729)
    for _ in range(200):
        a = sc.substitute(_random_scalar(rng), {"theta": rational(rng.randint(-2, 2))})
        at_one = sc.substitute(a, {"s": ONE})
        assert sc.contract(a) == at_one
        assert sc.contract(sc.omega() * sc.theta_var() * a) == sc.xi_var() * at_one


_S_POLYS = st.lists(
    st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=4), st.integers(-3, 3)),
    min_size=1,
    max_size=4,
).map(lambda terms: _laurent([(c, e, 0, 0) for c, e in terms]))


@settings(max_examples=150, deadline=None)
@given(_S_POLYS, st.integers(0, 3), st.integers(0, 2))
def test_contract_of_a_theta_power(r, j, exi):
    """theta**j (s - 1)**j s**-2j R(s) contracts to xi**j R(1)/4**j for R(1) != 0;
    with one factor (s - 1) fewer it has a pole at s = 1."""
    at_one = sc.substitute(r, {"s": ONE})
    assume(not at_one.is_zero())
    r = r * sc.xi_var(exi)
    unit = sc.theta_var() * sc.s_var(-2)
    a = _power(unit * S_MINUS_ONE, j) * r
    want = sc.xi_var(j + exi).scale(at_one.as_fraction() / 4**j)
    assert sc.contract(a) == want
    if j:
        fewer = _power(unit, j) * _power(S_MINUS_ONE, j - 1) * r
        with pytest.raises(ScalarError, match="limit does not exist: pole at s = 1"):
            sc.contract(fewer)


def test_format_parse_round_trip():
    rng = random.Random(404)
    for _ in range(220):
        a = _random_scalar(rng)
        assert sc.parse_scalar(sc.format_scalar(a)) == a


@pytest.mark.parametrize(
    "text",
    [
        "zeta+1", "2*zeta", "s^x", "2x*s",
        "(1) / (1*s - 1)", "(1) / (0)", "(1) / (1*theta)", "theta^-1",
        # spellings format_scalar never writes
        "xi", "-xi", "s^2", "1 * xi", "1*xi*s", "1*s*s", "2*3*s", "1*theta*s",
        " 1", "2/4", "1.5", "1*s^1", "1*xi^0", "1 + 1*s", "1*s + 1*s", "1 + -1*s",
    ],
)
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


# polynomials (e_s >= 0) with the power of s below them
_NUMERATORS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(_NUMERATORS, st.integers(0, 4))
def test_canonical_text_matches_polynomial_reduction(num, k):
    """A Laurent scalar prints as the reduced fraction of polynomials.

    The reference (tests/scalar_oracle.py) takes the polynomial numerator
    and the power of s below it, cancels their common power of s and
    writes the text itself.
    """
    a = _laurent([(c, es - k, eth, exi) for (es, eth, exi), c in num.items()])
    text = sc.format_scalar(a)
    assert text == format_fraction(num, k)
    assert sc.parse_scalar(text) == a


def test_a_factor_equal_to_one_returns_the_other():
    """Times a one that is not the ONE singleton, the other factor comes back unchanged."""
    one = rational(3) * rational(Fraction(1, 3))
    assert one == ONE and one is not ONE
    a = sc.omega() * sc.theta_var()
    assert one * a == a and a * one == a
    b = sc.s_var(-1) + sc.xi_var()
    assert one * b == b and b * one == b


def test_as_fraction_and_const_value_are_fractions():
    """rational stores the int it is given; as_fraction reads a rational,
    zero included, as a Fraction."""
    assert rational(3).terms == {(0, 0, 0): 3}
    assert type(rational(3).terms[(0, 0, 0)]) is int
    for value in (rational(3).as_fraction(), ZERO.as_fraction()):
        assert type(value) is Fraction
    assert rational(3).as_fraction() == 3 and ZERO.as_fraction() == 0
    with pytest.raises(ScalarError, match="not a plain rational"):
        sc.s_var().as_fraction()


# Laurent scalars built the way the package builds them, through monomials and +
_LAURENT = st.lists(
    st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.integers(-3, 3),
        st.integers(0, 2),
        st.integers(0, 2),
    ),
    max_size=4,
).map(_laurent)
_UNITS = st.builds(
    lambda c, k: sc.s_var(k).scale(c),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
    st.integers(-3, 3),
)


def _results(a, b, u, c):
    """Scalars reached from a, b and the unit u through every public operation."""
    out = [a + b, a - b, a * b, -a, a.scale(c), sc.parse_scalar(sc.format_scalar(a)), sc.inv(u)]
    theta_free = sc.substitute(a, {"theta": rational(c)})
    out.append(theta_free)
    out.append(sc.substitute(a, {"xi": rational(c), "s": rational(2)}))
    out.append(sc.contract(sc.omega() * sc.theta_var() * theta_free + u))
    return out


@settings(max_examples=150, deadline=None)
@given(_LAURENT, _LAURENT, _UNITS, st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_every_operation_keeps_exact_nonzero_coefficients(a, b, u, c):
    """Each coefficient is a nonzero int or Fraction; never a float, a bool or zero.

    Whichever of the two an operation returns, the text matches the
    polynomial-reduction reference.
    """
    for value in [a, b] + _results(a, b, u, c):
        assert exact_coefficients(value), value.terms
        k = max([0] + [-es for es, _, _ in value.terms])
        num = {(es + k, eth, exi): v for (es, eth, exi), v in value.terms.items()}
        assert sc.format_scalar(value) == format_fraction(num, k)

"""Exact arithmetic in the ring Q[s, s^-1][theta, xi].

Ground rules for every value handled by this package:

* q is represented as s**2 throughout, so square roots of q stay
  polynomial;
* a Scalar is a Laurent polynomial in s and a polynomial in theta and
  xi over the rationals, stored as its terms {(e_s, e_theta, e_xi): c}
  with no zero c -- a power of s, negative or not, is a monomial, and
  there is no denominator;
* a coefficient is the ``int`` or ``Fraction`` its arithmetic returns,
  never converted: an ``int`` and the equal ``Fraction`` compare, hash
  and print alike, and no float is stored;
* the units of the ring are the c * s**k, and inv inverts those alone.

Two scalars are equal exactly when their term maps are.  q, q**-1 and
omega = q - q**-1 = s**-2 (s - 1)(s + 1)(s**2 + 1) all lie in the ring,
so the q-deformed construction never divides a scalar: the
q-anticommutator of coproducts.Q_DEFORMED is checked times 4 omega, the
pole test of matrices.check_new_entries_proportional evaluates at s = 1,
and the contraction theta = xi/omega, s -> 1 is the Taylor-coefficient
map ``contract``.  The printed form clears negative
powers of s into a denominator s**k (``format_scalar``), so it is the
reduced fraction of polynomials.
"""

from fractions import Fraction
from math import factorial


class ScalarError(ArithmeticError):
    pass


VARS = ("s", "theta", "xi")
_K0 = (0, 0, 0)


def _add_into(out, key, c):
    """out[key] += c, dropping the key when the sum is zero."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class Scalar:
    """An immutable element of Q[s, s^-1][theta, xi], held as its terms map.

    The constructor trusts its map: nonzero int or Fraction coefficients
    under (e_s, e_theta, e_xi) keys with e_theta, e_xi >= 0.  Build one
    with rational, s_var, theta_var, xi_var, q_var or parse_scalar.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and _K0 in self.terms)

    def as_fraction(self):
        if not self.is_rational():
            raise ScalarError("scalar is not a plain rational")
        return Fraction(self.terms.get(_K0, 0))

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_into(out, k, c)
        return Scalar(out)

    def __neg__(self):
        return Scalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1, c1), u in self.terms.items():
            for (a2, b2, c2), v in other.terms.items():
                _add_into(out, (a1 + a2, b1 + b2, c1 + c2), u * v)
        return Scalar(out)

    def scale(self, c):
        """self times the rational c."""
        if not c:
            return ZERO
        return Scalar({k: v * c for k, v in self.terms.items()})

    def __repr__(self):
        return format_scalar(self)


ZERO = Scalar({})
ONE = Scalar({_K0: 1})


def rational(c):
    return Scalar({_K0: c} if c else {})


def _monomial(es=0, eth=0, exi=0):
    return Scalar({(es, eth, exi): 1})


def s_var(power=1):
    return _monomial(es=power)


def theta_var():
    return _monomial(eth=1)


def xi_var(power=1):
    return _monomial(exi=power)


def q_var(power=1):
    return _monomial(es=2 * power)


def omega():
    """q - 1/q with q = s**2, i.e. s**2 - s**-2."""
    return q_var() - q_var(-1)


def inv(a):
    """The inverse of a unit c * s**k; any other scalar raises ScalarError."""
    if not a.terms:
        raise ScalarError("division by zero")
    ((es, eth, exi), c), *rest = a.terms.items()
    if rest or eth or exi:
        raise ScalarError("%s is not a unit c*s^k" % format_scalar(a))
    return Scalar({(-es, 0, 0): Fraction(1) / c})


def substitute(a, bindings):
    """a with some of s, theta and xi bound to rationals; bindings maps names to Scalars."""
    for name in bindings:
        if name not in VARS:
            raise ScalarError("unknown variable %r" % name)
    values = [bindings[name].as_fraction() if name in bindings else None for name in VARS]
    out = {}
    for key, c in a.terms.items():
        kept = list(key)
        for idx, value in enumerate(values):
            if value is None:
                continue
            e, kept[idx] = key[idx], 0
            if e < 0 and not value:
                raise ScalarError("division by zero")
            c = c * value**e
        _add_into(out, tuple(kept), c)
    return Scalar(out)


def _binomial(e, i):
    """The binomial coefficient e choose i for any integer e (an integer)."""
    out = 1
    for k in range(i):
        out *= e - k
    return out // factorial(i)


def contract(a):
    """The contraction theta = xi/omega followed by s -> 1, exactly.

    omega = s**-2 (s - 1) g(s) with g = (s + 1)(s**2 + 1) and g(1) = 4.
    With J the highest power of theta in a, theta = xi/omega turns a into
    p / omega**J = s**(2J) p / ((s - 1)**J g**J), where p is a with each
    theta**j replaced by xi**j omega**(J - j), a Laurent polynomial.  So
    the limit s -> 1 exists exactly when, for each power of xi, the
    Taylor coefficients 0..J-1 of s**(2J) p at s = 1 vanish, and it is
    then the J-th coefficient over 4**J; a theta**j part c_j(s) alone
    goes to xi**j times the j-th Taylor coefficient of c_j(s) s**(2j)
    over 4**j.  The k-th Taylor coefficient of a Laurent polynomial
    sum c_e s**e at s = 1 is sum c_e (e choose k).
    """
    top = max((eth for _, eth, _ in a.terms), default=0)
    omega_powers = [ONE]
    for _ in range(top):
        omega_powers.append(omega_powers[-1] * omega())
    p = ZERO
    for (es, eth, exi), c in a.terms.items():
        p = p + omega_powers[top - eth] * Scalar({(es + 2 * top, 0, eth + exi): c})
    groups = {}
    for (es, _, exi), c in p.terms.items():
        groups.setdefault(exi, []).append((es, c))
    out = {}
    for exi, terms in groups.items():
        taylor = [sum(c * _binomial(e, k) for e, c in terms) for k in range(top + 1)]
        if any(taylor[:top]):
            raise ScalarError("limit does not exist: pole at s = 1")
        if taylor[top]:
            out[(0, 0, exi)] = Fraction(taylor[top], 4**top)
    return Scalar(out)


# ---------------------------------------------------------------------------
# canonical text form


def _format_monomial(key, coeff):
    parts = [str(coeff)]
    for name, e in zip(VARS, key):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def _format_terms(terms):
    if not terms:
        return "0"
    keys = sorted(terms, reverse=True)
    pieces = [_format_monomial(keys[0], terms[keys[0]])]
    for k in keys[1:]:
        c = terms[k]
        if c < 0:
            pieces.append(" - " + _format_monomial(k, -c))
        else:
            pieces.append(" + " + _format_monomial(k, c))
    return "".join(pieces)


def format_scalar(a):
    """Text of the reduced fraction of polynomials: negative powers of s
    are cleared into the denominator s**k."""
    k = -min((key[0] for key in a.terms), default=0)
    if k <= 0:
        return _format_terms(a.terms)
    num = {(es + k, eth, exi): c for (es, eth, exi), c in a.terms.items()}
    return "(%s) / (%s)" % (_format_terms(num), _format_terms({(k, 0, 0): 1}))


def parse_poly(text):
    """A Scalar from the text of a polynomial, as _format_terms writes one."""
    text = text.strip()
    out = {}
    # normalize " - " separators into signed chunks
    for piece in text.replace(" - ", " + -").split(" + "):
        piece = piece.strip()
        if not piece:
            raise ScalarError("malformed polynomial %r" % text)
        negate = piece.startswith("-")
        if negate:
            piece = piece[1:]
        coeff = Fraction(1)
        exps = {"s": 0, "theta": 0, "xi": 0}
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ScalarError("malformed monomial in %r" % text)
            name, caret, e = factor.partition("^")
            try:
                if factor[0].isdigit():
                    coeff *= Fraction(factor)
                elif name in exps:
                    exps[name] += int(e) if caret else 1
                else:
                    raise ScalarError("unknown variable %r in %r" % (name, text))
            except (ValueError, ZeroDivisionError):
                raise ScalarError("malformed factor %r in %r" % (factor, text))
        if exps["theta"] < 0 or exps["xi"] < 0:
            raise ScalarError("negative power of theta or xi in %r" % text)
        _add_into(out, (exps["s"], exps["theta"], exps["xi"]), -coeff if negate else coeff)
    return Scalar(out)


def parse_scalar(text):
    """A Scalar from format_scalar's text; a denominator must be a unit c*s^k."""
    text = text.strip()
    if ") / (" in text:
        left, _, right = text.partition(") / (")
        if not left.startswith("(") or not right.endswith(")"):
            raise ScalarError("malformed scalar %r" % text)
        return parse_poly(left[1:]) * inv(parse_poly(right[:-1]))
    return parse_poly(text)

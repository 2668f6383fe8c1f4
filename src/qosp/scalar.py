"""Exact arithmetic for rational functions in s, theta and xi.

Ground rules for every value handled by this package:

* q is represented as s**2 throughout, so square roots of q stay
  polynomial;
* numerators are Laurent polynomials in s and polynomials in theta and
  xi, over the rationals -- a power of s, negative or not, is a
  numerator monomial, never a denominator;
* a stored coefficient is an ``int`` when it is integral and a
  ``Fraction`` (denominator > 1) only when it is not, so the mostly
  integral arithmetic of the checks runs on ints; ``int`` and
  ``Fraction`` compare, hash and print alike, and no float is stored;
* denominators are monic polynomials in s alone with a nonzero constant
  term, i.e. coprime to s -- theta and xi never occur in a denominator
  of any construction built downstream;
* values are kept reduced: the gcd of numerator and denominator, taken
  as univariate polynomials in s, is 1.

So ``omega() = s**2 - s**-2`` and ``s**-k`` have denominator 1, and sums
and products of them skip the Euclidean gcd.  The printed form clears
negative powers of s into the denominator (``format_scalar``), so it is
the plain reduced fraction of polynomials.

The q -> 1 contraction is exposed as ``limit_at_one``, which evaluates
at s = 1: normalization has already cancelled every common factor, so
no (s - 1) is left to cancel and no series is expanded.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ArithmeticError):
    pass


_FR0 = Fraction(0)
_FR1 = Fraction(1)

VARS = ("s", "theta", "xi")


# ---------------------------------------------------------------------------
# polynomial layer: dict mapping (e_s, e_theta, e_xi) -> int or Fraction


def _coeff(c):
    """c in stored form: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Laurent in s, polynomial in (theta, xi); no zero coefficients are stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def const(c):
        c = _coeff(c)
        return Poly({(0, 0, 0): c} if c else {})

    @staticmethod
    def monomial(c, es=0, eth=0, exi=0):
        c = _coeff(c)
        if eth < 0 or exi < 0:
            raise ScalarError("Poly stores nonnegative theta and xi exponents only")
        return Poly({(es, eth, exi): c} if c else {})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0, 0) in self.terms)

    def const_value(self):
        return Fraction(self.terms.get((0, 0, 0), 0))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = _coeff(v)
            else:
                out.pop(k, None)
        return Poly(out)

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly()
        out = {}
        for (a1, b1, c1), u in self.terms.items():
            for (a2, b2, c2), v in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                w = u * v  # nonzero: u and v are
                if k in out:
                    w += out[k]
                    if not w:
                        del out[k]
                        continue
                out[k] = _coeff(w)
        return Poly(out)

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return Poly()
        return Poly({k: _coeff(v * c) for k, v in self.terms.items()})

    def shift_s(self, n):
        """Multiply by s**n (n may be negative)."""
        if n == 0:
            return self
        return Poly({(a + n, b, c): v for (a, b, c), v in self.terms.items()})

    def min_s_power(self):
        return min((k[0] for k in self.terms), default=0)

    def is_s_only(self):
        return all(k[1] == 0 and k[2] == 0 for k in self.terms)

    def theta_free(self):
        return all(k[1] == 0 for k in self.terms)

    def eval_s_one(self):
        """Collapse s := 1; result is a Poly in (theta, xi)."""
        out = {}
        for (a, b, c), v in self.terms.items():
            k = (0, b, c)
            w = out.get(k, 0) + v
            if w:
                out[k] = _coeff(w)
            else:
                out.pop(k, None)
        return Poly(out)

    # -- univariate-in-s helpers (used for gcd with denominators) ---------

    def s_groups(self):
        """Group terms by (e_theta, e_xi); each value is a dense s-list of Fractions.

        Needs nonnegative s exponents.
        """
        groups = {}
        for (a, b, c), v in self.terms.items():
            groups.setdefault((b, c), {})[a] = Fraction(v)
        out = {}
        for key, m in groups.items():
            deg = max(m)
            out[key] = [m.get(i, _FR0) for i in range(deg + 1)]
        return out

    def to_dense_s(self):
        """Dense s-list of Fractions of a univariate polynomial; needs s exponents >= 0."""
        if not self.is_s_only():
            raise ScalarError("polynomial is not univariate in s")
        if not self.terms:
            return []
        deg = max(k[0] for k in self.terms)
        dense = [_FR0] * (deg + 1)
        for (a, _, _), v in self.terms.items():
            dense[a] = Fraction(v)
        return dense

    @staticmethod
    def from_dense_s(dense):
        return Poly({(i, 0, 0): _coeff(c) for i, c in enumerate(dense) if c})


def _dense_trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _dense_divmod(u, v):
    """Exact-arithmetic division of dense s-polynomials."""
    u = list(u)
    q = [_FR0] * max(0, len(u) - len(v) + 1)
    lead = v[-1]
    for i in range(len(u) - len(v), -1, -1):
        c = u[i + len(v) - 1] / lead
        if c:
            q[i] = c
            for j, vc in enumerate(v):
                u[i + j] -= c * vc
    return q, _dense_trim(u)


def _dense_gcd(u, v):
    """Monic gcd of dense univariate polynomials over Q."""
    u = _dense_trim(list(u))
    v = _dense_trim(list(v))
    while v:
        _, r = _dense_divmod(u, v)
        u, v = v, r
    if u:
        lead = u[-1]
        u = [c / lead for c in u]
    return u


def _poly_divexact_s(p, dense):
    """Divide p by a univariate s-polynomial coprime to s; raise if not exact."""
    if len(dense) == 1:
        return p.scale(_FR1 / dense[0])
    low = p.min_s_power()
    out = {}
    for (b, c), u in p.shift_s(-low).s_groups().items():
        q, r = _dense_divmod(u, dense)
        if _dense_trim(r):
            raise ScalarError("inexact division by s-polynomial")
        for i, coeff in enumerate(q):
            if coeff:
                out[(i + low, b, c)] = _coeff(coeff)
    return Poly(out)


# ---------------------------------------------------------------------------
# scalar layer


class Scalar:
    """Reduced fraction num/den: num Laurent in s, den monic in s and coprime to s."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = _P_ONE
        if _normalized:
            self.num = num
            self.den = den
            return
        num, den = _normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(c):
        return Scalar(Poly.const(c), _P_ONE, _normalized=True)

    @staticmethod
    def var(name, power=1):
        """s, theta or xi to an integer power (s may be negative)."""
        idx = VARS.index(name)
        exps = [0, 0, 0]
        exps[idx] = power
        return Scalar(Poly.monomial(1, *exps), _P_ONE, _normalized=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_rational(self):
        return self.num.is_const() and self.den == _P_ONE

    def as_fraction(self):
        if not self.is_rational():
            raise ScalarError("scalar is not a plain rational")
        return self.num.const_value()

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations ----------------------------------------------------
    #
    # Fast path: every denominator equal to 1 is the shared _P_ONE (see
    # _normalize), and over denominator 1 a sum or product of reduced
    # scalars is already reduced, so both skip _normalize.  Powers of s
    # live in the numerator, so this covers omega and s**-k too.

    def __add__(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den is _P_ONE and other.den is _P_ONE:
            return Scalar(self.num + other.num, _P_ONE, _normalized=True)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return Scalar(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        if self.den is _P_ONE and other.den is _P_ONE:
            # Scalars are immutable, so a factor equal to one lets the
            # other be shared, whether or not it is the ONE singleton
            if self.num.terms == _ONE_TERMS:
                return other
            if other.num.terms == _ONE_TERMS:
                return self
            return Scalar(self.num * other.num, _P_ONE, _normalized=True)
        return Scalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return self * inv(other)

    def __pow__(self, n):
        if n < 0:
            return inv(self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c):
        num = self.num.scale(c)
        if num.is_zero():
            return ZERO
        return Scalar(num, self.den, _normalized=True)

    # -- structure queries ---------------------------------------------------

    def theta_free(self):
        return self.num.theta_free()

    def __repr__(self):
        return format_scalar(self)


def _normalize(num, den):
    if den.is_zero():
        raise ScalarError("division by zero")
    if not den.is_s_only():
        raise ScalarError("denominator must be univariate in s")
    if num.is_zero():
        return Poly(), _P_ONE
    # move the s-content of the denominator into the numerator
    low = den.min_s_power()
    if low:
        num = num.shift_s(-low)
        den = den.shift_s(-low)
    dden = den.to_dense_s()
    if len(dden) > 1:
        # dden is coprime to s, so the numerator's own s-content is inert
        g = dden
        for u in num.shift_s(-num.min_s_power()).s_groups().values():
            g = _dense_gcd(g, u)
            if len(g) == 1:
                break
        if len(g) > 1:
            q, r = _dense_divmod(dden, g)
            assert not _dense_trim(r)
            dden = q
            num = _poly_divexact_s(num, g)
    lead = dden[-1]
    if lead != 1:
        dden = [c / lead for c in dden]
        num = num.scale(_FR1 / lead)
    if len(dden) == 1:
        return num, _P_ONE
    return num, Poly.from_dense_s(dden)


_P_ONE = Poly.const(1)
_ONE_TERMS = _P_ONE.terms

ZERO = Scalar.from_fraction(0)
ONE = Scalar.from_fraction(1)


def rational(c):
    return Scalar.from_fraction(c)


def s_var(power=1):
    return Scalar.var("s", power)


def theta_var():
    return Scalar.var("theta")


def xi_var(power=1):
    return Scalar.var("xi", power)


def q_var(power=1):
    return Scalar.var("s", 2 * power)


def omega():
    """q - 1/q with q = s**2, i.e. (s**4 - 1)/s**2."""
    return q_var() - q_var(-1)


# -- field operations as free functions --------------------------------------


def inv(a):
    """Multiplicative inverse.

    Only scalars whose numerator is free of theta and xi are invertible
    here, because denominators are restricted to polynomials in s.
    """
    if a.is_zero():
        raise ScalarError("division by zero")
    if not a.num.is_s_only():
        raise ScalarError(
            "inverse would put theta or xi into a denominator: %s" % format_scalar(a)
        )
    return Scalar(a.den, a.num)


def substitute(a, bindings):
    """Exact composition; bindings maps variable names to Scalars."""
    for name in bindings:
        if name not in VARS:
            raise ScalarError("unknown variable %r" % name)
    if not bindings:
        return a
    values = [bindings.get(name) for name in VARS]
    num = _eval_poly(a.num, values)
    den = _eval_poly(a.den, values)
    if den.is_zero():
        raise ScalarError("denominator vanishes identically under substitution")
    return num * inv(den)


def _eval_poly(p, values):
    pows = [{}, {}, {}]

    def power(idx, n):
        if values[idx] is None:
            return Scalar.var(VARS[idx], n)
        cache = pows[idx]
        if n not in cache:
            cache[n] = values[idx] ** n
        return cache[n]

    total = ZERO
    for (a, b, c), v in p.terms.items():
        term = Scalar.from_fraction(v)
        if a:
            term = term * power(0, a)
        if b:
            term = term * power(1, b)
        if c:
            term = term * power(2, c)
        total = total + term
    return total


def limit_at_one(a):
    """The limit s -> 1, after the contraction binding removed theta.

    a is reduced, so (s - 1) never divides both numerator and
    denominator: the limit is num(1) / den(1), and den(1) == 0 is a
    genuine pole.
    """
    if not a.theta_free():
        raise ScalarError("limit requires a theta-free scalar")
    den_at_one = sum(a.den.to_dense_s())
    if not den_at_one:
        raise ScalarError("limit does not exist: pole at s = 1")
    return Scalar(a.num.eval_s_one().scale(_FR1 / den_at_one), Poly.const(1))


# ---------------------------------------------------------------------------
# canonical text form


def _format_monomial(key, coeff):
    es, eth, exi = key
    parts = [str(coeff)]
    for name, e in zip(VARS, key):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def format_poly(p):
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, reverse=True)
    pieces = [_format_monomial(keys[0], p.terms[keys[0]])]
    for k in keys[1:]:
        c = p.terms[k]
        if c < 0:
            pieces.append(" - " + _format_monomial(k, -c))
        else:
            pieces.append(" + " + _format_monomial(k, c))
    return "".join(pieces)


def format_scalar(a):
    """Text of the reduced fraction of polynomials: negative powers of s
    in the numerator are cleared into the denominator."""
    k = max(0, -a.num.min_s_power())
    num, den = a.num.shift_s(k), a.den.shift_s(k)
    if den == _P_ONE:
        return format_poly(num)
    return "(%s) / (%s)" % (format_poly(num), format_poly(den))


def parse_poly(text):
    text = text.strip()
    if text == "0":
        return Poly()
    chunks = []
    # normalize " - " separators into signed chunks
    for piece in text.replace(" - ", " + -").split(" + "):
        piece = piece.strip()
        if not piece:
            raise ScalarError("malformed polynomial %r" % text)
        chunks.append(piece)
    total = Poly()
    for piece in chunks:
        negate = piece.startswith("-")
        if negate:
            piece = piece[1:]
        coeff = _FR1
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
        if negate:
            coeff = -coeff
        total = total + Poly.monomial(coeff, exps["s"], exps["theta"], exps["xi"])
    return total


def parse_scalar(text):
    text = text.strip()
    if ") / (" in text:
        left, _, right = text.partition(") / (")
        if not left.startswith("(") or not right.endswith(")"):
            raise ScalarError("malformed scalar %r" % text)
        return Scalar(parse_poly(left[1:]), parse_poly(right[:-1]))
    return Scalar(parse_poly(text), Poly.const(1))

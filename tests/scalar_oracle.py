"""Reference canonical form of a fraction of polynomials in s, theta, xi.

qosp.scalar keeps powers of s in a Laurent numerator, so its denominators
are coprime to s, and clears them back into the denominator only to print.
This is the earlier reduction, with polynomial numerators only: the
denominator carries every power of s, its s-content is cancelled against
the numerator's, and Euclid runs on the rest.  The tests compare the text
of qosp.scalar.format_scalar against format_fraction here, and check the
stored form of every coefficient with stored_form.
"""

from fractions import Fraction

from qosp.scalar import (
    _FR1,
    Poly,
    ScalarError,
    _dense_divmod,
    _dense_gcd,
    _dense_trim,
    format_poly,
)

_P_ONE = Poly.const(1)


def _poly_divexact_s(p, dense):
    """Divide a polynomial p by a univariate s-polynomial; raise if not exact."""
    if len(dense) == 1:
        return p.scale(_FR1 / dense[0])
    out = {}
    for (b, c), u in p.s_groups().items():
        q, r = _dense_divmod(u, dense)
        if _dense_trim(r):
            raise ScalarError("inexact division by s-polynomial")
        for i, coeff in enumerate(q):
            if coeff:
                out[(i, b, c)] = coeff
    return Poly(out)


def normalize(num, den):
    """Reduced (num, den) for polynomial num and den, den monic in s."""
    if den.is_zero():
        raise ScalarError("division by zero")
    if not den.is_s_only():
        raise ScalarError("denominator must be univariate in s")
    if num.is_zero():
        return Poly(), _P_ONE
    dden = den.to_dense_s()
    # pull the s-content of the denominator against the numerator first
    low = next(i for i, c in enumerate(dden) if c)
    if low:
        nlow = num.min_s_power()
        k = min(low, nlow)
        if k:
            num = num.shift_s(-k)
            dden = dden[k:]
    if len(dden) > 1:
        g = dden
        for u in num.s_groups().values():
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


def format_fraction(num, den):
    """Canonical text of num/den, both polynomials."""
    num, den = normalize(num, den)
    if den == _P_ONE:
        return format_poly(num)
    return "(%s) / (%s)" % (format_poly(num), format_poly(den))


def stored_form(a):
    """True when every coefficient of the Scalar a is an int or a non-integral Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for poly in (a.num, a.den)
        for c in poly.terms.values()
    )

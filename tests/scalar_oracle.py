"""Reference text of a scalar, and the exactness of its coefficients.

qosp.scalar stores a Scalar as its Laurent terms {(e_s, e_theta, e_xi): c}
and prints it as the reduced fraction of polynomials, clearing negative
powers of s into a denominator s**k.  format_fraction writes that text
here on its own: it takes a polynomial numerator and the power of s
below it, cancels their common power of s and prints every monomial
itself.  The tests compare qosp.scalar.format_scalar against it, and
check with exact_coefficients that every coefficient is a nonzero int
or Fraction, never a float, a bool or zero.
"""

from fractions import Fraction


def _monomial(key, c):
    text = str(c)
    for name, e in zip(("s", "theta", "xi"), key):
        if e == 1:
            text += "*" + name
        elif e:
            text += "*%s^%d" % (name, e)
    return text


def _polynomial(terms):
    pieces = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        if not pieces:
            pieces.append(_monomial(key, c))
        else:
            pieces.append((" - " if c < 0 else " + ") + _monomial(key, abs(c)))
    return "".join(pieces) or "0"


def format_fraction(num, k):
    """Text of num / s**k in lowest terms, num a polynomial {(e_s, e_theta, e_xi): c}."""
    common = min([k] + [key[0] for key in num])
    num = {(a - common, b, c): v for (a, b, c), v in num.items()}
    if k == common:
        return _polynomial(num)
    return "(%s) / (%s)" % (_polynomial(num), _monomial((k - common, 0, 0), 1))


def exact_coefficients(a):
    """True when every coefficient of the Scalar a is a nonzero int or Fraction."""
    return all(type(c) in (int, Fraction) and c for c in a.terms.values())

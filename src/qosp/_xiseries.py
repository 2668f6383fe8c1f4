"""Truncated xi series over the rationals, the kernel of the odd-twist solver.

The solver's matrices carry no s and no theta.  A series is a pair
(nums, den): one sparse map {(k, i, j): int} from a power k of xi and an
entry (i, j) to the numerator of its coefficient, over one positive
common denominator den.  Every function returns it canonical: no zero
numerator, gcd(den, *nums) == 1, and den == 1 when nums is empty.  Two
series are then equal exactly when their values are, and a product
multiplies integers and reduces once.  Fraction appears only in
from_matrix and coefficient; no series is turned back into a matrix.

A pair is truthy even when the series is zero, so emptiness goes through
is_zero; canonical pairs compare by value with ==.  One product gives
the product through an order and a single slice.
"""

import math
from fractions import Fraction

from .gmatrix import MatrixError

ZERO = ({}, 1)


def _canonical(nums, den):
    """(nums, den) without zero numerators and with the common factor removed."""
    nums = {key: v for key, v in nums.items() if v}
    if not nums:
        return ZERO
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {key: v // g for key, v in nums.items()}
            den //= g
    return nums, den


def is_zero(a):
    return not a[0]


def identity(dim):
    return {(0, i, i): 1 for i in range(dim)}, 1


def coefficient(a, key):
    """The coefficient of xi**k at (i, j), key = (k, i, j), as a Fraction."""
    return Fraction(a[0].get(key, 0), a[1])


def from_matrix(m, order):
    """m through xi**order; an entry with s, theta or a denominator raises MatrixError."""
    coeffs = {}
    for i, j, v in m.entries():
        if not v.den.is_const() or any(es or eth for es, eth, _ in v.num.terms):
            raise MatrixError("entry (%d, %d) is not rational in xi: %s" % (i + 1, j + 1, v))
        coeffs.update(((k, i, j), c) for (_, _, k), c in v.num.terms.items() if k <= order)
    # canonical as built: the lcm of reduced denominators shares no factor with all numerators
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den


def add(x, y, c=1):
    """x + c y for a rational c."""
    (xn, xd), (yn, yd) = x, y
    yd *= c.denominator
    den = xd * yd // math.gcd(xd, yd)
    fx, fy = den // xd, den // yd * c.numerator
    out = dict(xn) if fx == 1 else {key: v * fx for key, v in xn.items()}
    for key, v in yn.items():
        out[key] = out.get(key, 0) + v * fy
    return _canonical(out, den)


def mul(a, b, order, low=0):
    """The terms of the product a b from xi**low through xi**order."""
    (an, ad), (bn, bd) = a, b
    rows = {}
    for (q, k, j), d in bn.items():
        rows.setdefault(k, []).append((q, j, d))
    for row in rows.values():  # by power first, so a row's walk can stop at the order
        row.sort()
    out = {}
    for (p, i, k), c in an.items():
        for q, j, d in rows.get(k, ()):
            if p + q > order:
                break
            if p + q >= low:
                key = (p + q, i, j)
                out[key] = out.get(key, 0) + c * d
    return _canonical(out, ad * bd)


def exp(t, dim, order):
    """exp(t) and exp(-t) through xi**order; t starts at xi**1.

    Both are finite sums over the same powers t**k/k!, which are formed
    once: with E and O the sums over even and odd k, exp(t) = E + O and
    exp(-t) = E - O.
    """
    parts, power, k = [identity(dim), ZERO], t, 1
    while not is_zero(power):
        parts[k % 2] = add(parts[k % 2], power, Fraction(1, math.factorial(k)))
        power = mul(power, t, order)
        k += 1
    even, odd = parts
    return add(even, odd), add(even, odd, -1)

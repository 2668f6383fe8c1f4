"""Truncated xi series over the rationals, the kernel of the odd-twist solver.

The solver's matrices carry no s and no theta.  A series is a pair
(nums, den): one sparse map {(k, i, j): int} from a power k of xi and an
entry (i, j) to the numerator of its coefficient, over one positive
common denominator den.  Every function returns it canonical: no zero
numerator, gcd(den, *nums) == 1, and den == 1 when nums is empty.  Two
series are then equal exactly when their values are, and a product
multiplies integers and reduces once.  A GradedMatrix is held the same
way, so from_matrix only relabels its terms; Fraction appears only in
coefficient and the weights of exp, and no series is turned back into a
matrix.

A pair is truthy even when the series is zero, so emptiness goes through
is_zero; canonical pairs compare by value with ==.  One product gives
the product through an order and a single slice, and every sum is one
call to linear_combination, which adds all its terms over their lcm
denominator in a single pass and reduces once.
"""

import math
from fractions import Fraction

from .gmatrix import MatrixError


def _canonical(nums, den):
    """(nums, den) without zero numerators and with the common factor removed."""
    nums = {key: v for key, v in nums.items() if v}
    if not nums:
        return {}, 1
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
    """m through xi**order; an entry with s or theta raises MatrixError.

    The series keeps m's numerators and denominator under (k, i, j) keys
    and drops the terms above the order, which may leave a common factor.
    """
    bad = min(((i, j) for i, j, es, eth, _ in m.terms if es or eth), default=None)
    if bad is not None:
        i, j = bad
        raise MatrixError("entry (%d, %d) is not rational in xi: %s" % (i + 1, j + 1, m[i, j]))
    return _canonical({(k, i, j): v for (i, j, _, _, k), v in m.terms.items() if k <= order}, m.den)


def linear_combination(terms):
    """The sum of c a over the (c, a) terms, rational c, in one pass.

    Every term is brought to the lcm of the denominators and added into
    one map, which is reduced once; the empty sum is ({}, 1).
    """
    terms = list(terms)
    den = math.lcm(*(d * c.denominator for c, (_, d) in terms))
    out = {}
    for c, (nums, d) in terms:
        f = den // (d * c.denominator) * c.numerator
        for key, v in nums.items():
            out[key] = out.get(key, 0) + v * f
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

    Both are finite sums over the same powers t**k, which are formed
    once: exp(t) weighs t**k by 1/k!, and exp(-t) by (-1)**k/k!.
    """
    powers, power = [identity(dim)], t
    while not is_zero(power):
        powers.append(power)
        power = mul(power, t, order)
    terms = [(Fraction(1, math.factorial(k)), p) for k, p in enumerate(powers)]
    f = linear_combination(terms)
    return f, linear_combination(((-1) ** k * c, p) for k, (c, p) in enumerate(terms))

"""xi truncation of Scalars and GradedMatrices, the reference for the solver kernel.

qosp.phi computes on truncated xi series of rational slices.  These
helpers truncate the symbolic objects instead, so the tests can compare
the kernel with GradedMatrix arithmetic followed by truncation.
series_values and assert_canonical read the kernel's own (nums, den) form.
"""

import math
from fractions import Fraction

from qosp.gmatrix import GradedMatrix
from qosp.scalar import Scalar


def xi_coefficient(x, r):
    """The coefficient of xi**r of a Scalar, or entrywise of a GradedMatrix."""
    if isinstance(x, GradedMatrix):
        return x.map_entries(lambda a: xi_coefficient(a, r))
    return Scalar({(a, b, 0): v for (a, b, c), v in x.terms.items() if c == r})


def drop_xi_above(x, n):
    """A Scalar, or entrywise a GradedMatrix, without its terms above xi**n."""
    if isinstance(x, GradedMatrix):
        return x.map_entries(lambda a: drop_xi_above(a, n))
    return Scalar({k: v for k, v in x.terms.items() if k[2] <= n})


def series_values(a):
    """The coefficients of a kernel series (nums, den) as {(k, i, j): Fraction}."""
    nums, den = a
    return {key: Fraction(v, den) for key, v in nums.items()}


def assert_canonical(a):
    """a is a canonical kernel series: integer numerators, none zero, over a positive
    denominator coprime to them, which is 1 for the empty series.  Returns a."""
    nums, den = a
    assert type(den) is int and den > 0, a
    assert all(type(v) is int and v for v in nums.values()), a
    assert math.gcd(den, *nums.values()) == 1, a
    return a

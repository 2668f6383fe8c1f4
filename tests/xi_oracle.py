"""xi slices and truncations of Scalars and GradedMatrices, the reference for the kernels.

qosp.phi's solver reads the xi**k slice of GradedMatrix products
(GradedMatrix.product(b, k)).  These helpers read a coefficient of xi,
or truncate, the symbolic objects entry by entry instead, so the tests
can compare the kernels with whole GradedMatrix arithmetic.  assert_canonical
reads a (numerators, denominator) pair, the form a GradedMatrix keeps.
"""

import math

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


def assert_canonical(a):
    """a = (nums, den) is canonical: integer numerators, none zero, over a positive
    denominator coprime to them, which is 1 when there are none.  Returns a."""
    nums, den = a
    assert type(den) is int and den > 0, a
    assert all(type(v) is int and v for v in nums.values()), a
    assert math.gcd(den, *nums.values()) == 1, a
    return a

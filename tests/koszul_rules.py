"""The four candidate Koszul sign rules for graded Kronecker products.

qosp.gmatrix.gkron implements only the package rule, "first_col"; the
sign-enumeration tests build the other three here and show that they
fail to reproduce the fixed matrices.
"""

from qosp.gmatrix import GradedMatrix, kron_parity

# rule -> odd exponent of the sign for A[i,j] B[x,y], given the parities
_SIGN = {
    "first_col": lambda p1, p2, i, j, x, y: p1[j] * (p2[x] + p2[y]),
    "first_row": lambda p1, p2, i, j, x, y: p1[i] * (p2[x] + p2[y]),
    "second_row": lambda p1, p2, i, j, x, y: p2[x] * (p1[i] + p1[j]),
    "second_col": lambda p1, p2, i, j, x, y: p2[y] * (p1[i] + p1[j]),
}


def gkron_rule(a, b, rule):
    """Graded Kronecker product of a and b under the named sign rule."""
    sign = _SIGN[rule]
    n2 = b.dim
    p1, p2 = a.parity, b.parity
    out = {}
    for i, j, av in a.entries():
        for x, y, bv in b.entries():
            v = av * bv
            out[(i * n2 + x, j * n2 + y)] = -v if sign(p1, p2, i, j, x, y) % 2 else v
    return GradedMatrix.from_entries(kron_parity(p1, p2), out)

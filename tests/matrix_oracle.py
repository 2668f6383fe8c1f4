"""Graded matrix kernels over {(i, j): Scalar} maps, the reference for qosp.gmatrix.

qosp.gmatrix stores a matrix as integer numerators over one denominator.
These are the kernels it replaced, kept entry by entry on Scalars: a
product grouping the right factor's entries by row, a one-pass linear
combination that scales every coefficient other than 1 and -1, the
Koszul-signed Kronecker product and the relabelling flip of two equal
legs.  Each takes GradedMatrices and returns the map of the result's
nonzero entries, with 0-based indices.  unipotent_inverse, the one
inverse the tests form, is the exception: a GradedMatrix built from the
kernel's own series, as qosp inverts no matrix.
"""

import itertools

from qosp.gmatrix import GradedMatrix, exp_nilpotent, kron_parity, log1p_nilpotent
from qosp.scalar import ONE, Scalar, rational


def entry_map(m):
    """The nonzero entries of a GradedMatrix as {(i, j): Scalar}."""
    return {(i, j): v for i, j, v in m.entries()}


def _scaled(c, nz):
    if not isinstance(c, Scalar):
        c = rational(c)
    if c.is_zero():
        return {}
    # a product of nonzero scalars is nonzero
    return {k: v * c for k, v in nz.items()}


def linear_combination(terms):
    """The sum of c * m over the (c, m) terms; a c of 1 or -1 is not scaled."""
    out = {}
    for c, m in terms:
        nz = entry_map(m)
        if c == 1:
            items = nz.items()
        elif c == -1:
            items = ((k, -v) for k, v in nz.items())
        else:
            items = _scaled(c, nz).items()
        for k, b in items:
            a = out.get(k)
            if a is None:
                out[k] = b
            else:
                s = a + b
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
    return out


def mul(a, b):
    brows = {}
    for k, j, v in b.entries():
        brows.setdefault(k, []).append((j, v))
    out = {}
    for i, k, x in a.entries():
        for j, y in brows.get(k, ()):
            key = (i, j)
            c = out.get(key)
            out[key] = x * y if c is None else c + x * y
    return {k: v for k, v in out.items() if not v.is_zero()}


def gkron(a, b):
    """Graded Kronecker product; composite index (i,x) -> i*dim(b) + x."""
    n2 = b.dim
    p1, p2 = a.parity, b.parity
    bitems = [(x, y, (p2[x] + p2[y]) % 2, bv) for x, y, bv in b.entries()]
    out = {}
    for i, j, av in a.entries():
        odd_col = p1[j]
        ri, cj = i * n2, j * n2
        for x, y, odd_entry, bv in bitems:
            v = bv if av == ONE else av if bv == ONE else av * bv
            out[(ri + x, cj + y)] = -v if odd_col and odd_entry else v
    return out


def flip_legs(m, v, w=(0,)):
    """P12 m P12 for m on V (x) V (x) W, P12 the graded flip of the two V legs."""
    assert m.parity == kron_parity(kron_parity(v, v), w)
    n, k = len(v), len(w)
    legs = itertools.product(range(n), range(n), range(k))
    to = [((b * n + a) * k + c, v[a] & v[b]) for a, b, c in legs]
    out = {}
    for i, j, x in m.entries():
        ki, odd_i = to[i]
        kj, odd_j = to[j]
        out[(ki, kj)] = -x if odd_i != odd_j else x
    return out


def unipotent_inverse(u):
    """u**-1 = exp(-log u) for a unipotent u; MatrixError unless u - I is nilpotent."""
    return exp_nilpotent(log1p_nilpotent(u - GradedMatrix.identity(u.parity)).scale(-1))

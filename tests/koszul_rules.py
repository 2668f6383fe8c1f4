"""Koszul sign rules written out independently of qosp.gmatrix.

The four candidate rules for graded Kronecker products: gkron implements
only the package rule, "first_col"; the sign-enumeration tests build the
other three here and show that they fail to reproduce the fixed
matrices.

The graded flip of two equal legs as an explicit permutation matrix:
the reference that gmatrix.flip_legs, which only relabels, is checked
against.

The formal graded product of tensor terms, with the atom parities
spelled out and E^k taken as grouplike: the reference that the
coproduct of a word, computed in qosp as its image in
JORDANIAN.module(r1, r2), is checked against.
"""

from qosp.coproducts import JORDANIAN
from qosp.gmatrix import GradedMatrix, kron_parity
from qosp.scalar import ONE, Scalar, rational

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


def gflip(parity):
    """Graded permutation P(e_i (x) e_j) = (-1)**(p(i)p(j)) e_j (x) e_i."""
    n = len(parity)
    out = {}
    for i in range(n):
        for j in range(n):
            out[(j * n + i, i * n + j)] = -ONE if parity[i] and parity[j] else ONE
    return GradedMatrix.from_entries(kron_parity(parity, parity), out)


_ATOM_PARITY = {"1": 0, "h": 0, "v+": 1, "v-": 1, "X+": 0, "s^h": 0, "s^-h": 0}


def as_word(w):
    """A word as the tuple of its atoms; an atom name is a word of one atom."""
    return (w,) if isinstance(w, str) else tuple(w)


def word_parity(w):
    return sum(0 if a.startswith("E^") else _ATOM_PARITY[a] for a in as_word(w)) % 2


def tensor_product(terms1, terms2):
    """(a (x) b)(c (x) d) = (-1)**(p(b)p(c)) (ac (x) bd), term by term."""
    out = []
    for c1, left1, right1 in terms1:
        for c2, left2, right2 in terms2:
            coeff = c1 * (c2 if isinstance(c2, Scalar) else rational(c2))
            if word_parity(right1) * word_parity(left2):
                coeff = -coeff
            out.append((coeff, as_word(left1) + as_word(left2), as_word(right1) + as_word(right2)))
    return out


def formal_delta_j_word(w):
    """Formal JORDANIAN coproduct of a product of atoms; 1 and E^k are grouplike."""
    terms = [(ONE, (), ())]
    for atom in as_word(w):
        if atom == "1" or atom.startswith("E^"):
            rule = [(ONE, atom, atom)]
        else:
            rule = JORDANIAN.rules[atom]
        terms = tensor_product(terms, rule)
    return terms

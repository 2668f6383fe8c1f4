"""Parity-aware linear algebra over the exact scalar field.

A GradedMatrix is square, carries a parity vector (one Z2 bit per basis
vector) and stores only its nonzero entries, in one private map
{(i, j): Scalar} with 0-based indices.  No zero is ever stored, so
every operation -- sums, products, Kronecker products, flips,
inversion, exponentials -- walks the nonzeros alone; the product groups
the right factor's nonzeros by row.  Matrices are immutable: operations
return new matrices, ``m[i, j]`` reads an entry (ZERO where none is
stored) and ``entries()`` yields the nonzeros in row-major order.

Graded Kronecker products insert Koszul signs; the sign convention used
throughout the package is

    gkron(A, B)[(i,a),(j,b)] = A[i,j] * B[a,b] * (-1)**(p(j)*(p(a)+p(b)))

i.e. the column parity of the first factor times the entry parity of
the second.  With this choice

    gkron(A, B) . gkron(C, D) = (-1)**(p(B)*p(C)) gkron(A.C, B.D)

for homogeneous B, C, which is the multiplication rule of the graded
tensor-product algebra.  A test enumerates the candidate conventions
and parity vectors against the fixed 9x9 matrices to show this is the
only combination that reproduces them; it takes each parity vector's
YBE residual from rll_residual, which places R13 with flip_legs.

gkron and flip_legs are the only code in the package that picks a
Koszul sign.  An operator on two adjacent legs of a triple product is
gkron with an identity; on legs 1 and 3 it is the legs-2-3 placement
conjugated by the graded flip of the two equal first legs, which
flip_legs does by relabelling indices, with signs read from the parity
v of the module V it swaps.  So R21 is flip_legs(R, v), and check_gybe,
like rll_residual, takes v: the parity of V (x) V fixes v only up to a
global flip.
Coproduct words are products of gkron images (coproducts.py), so their
signs come from the same rule.  The brackets checked on one module or
one coproduct image all have the even h as first operand, so they are
plain commutators and pick no sign either.

Every matrix identity the package checks is a residual that must be
literally zero; residual_check turns one into a Check whose data lists
the residual's first ten nonzero entries (check_gybe is one call to it).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .report import Check
from .scalar import ONE, ZERO, Scalar, format_scalar, parse_scalar, substitute


class MatrixError(ArithmeticError):
    pass


class GradedMatrix:
    """Immutable square graded matrix holding only its nonzero entries.

    Build one with from_entries, zeros or identity.  The constructor
    itself trusts its map: nonzero Scalars under in-range (i, j) keys.
    """

    __slots__ = ("dim", "parity", "_nz")

    def __init__(self, parity, nz):
        parity = tuple(parity)
        object.__setattr__(self, "dim", len(parity))
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "_nz", nz)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("GradedMatrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(parity):
        return GradedMatrix(parity, {})

    @staticmethod
    def identity(parity):
        return GradedMatrix(parity, {(i, i): ONE for i in range(len(parity))})

    @staticmethod
    def linear_combination(parity, terms):
        """The sum of c * m over the (c, m) terms; a c of 1 or -1 is not scaled."""
        total = GradedMatrix.zeros(parity)
        for c, m in terms:
            if c == 1:
                total = total + m
            elif c == -1:
                total = total - m
            else:
                total = total + m.scale(c)
        return total

    @staticmethod
    def from_entries(parity, entries):
        """entries: {(i, j): Scalar} with 0-based indices; zeros are dropped."""
        n = len(parity)
        nz = {}
        for (i, j), v in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise MatrixError("entry (%r, %r) outside a %dx%d matrix" % (i, j, n, n))
            if not v.is_zero():
                nz[(i, j)] = v
        return GradedMatrix(parity, nz)

    def __getitem__(self, key):
        i, j = key
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("entry (%r, %r) outside a %dx%d matrix" % (i, j, n, n))
        return self._nz.get(key, ZERO)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return GradedMatrix(self.parity, _accumulate(dict(self._nz), other._nz.items()))

    def __sub__(self, other):
        self._check_compatible(other)
        return GradedMatrix(
            self.parity,
            _accumulate(dict(self._nz), ((k, -v) for k, v in other._nz.items())),
        )

    def __neg__(self):
        return GradedMatrix(self.parity, {k: -v for k, v in self._nz.items()})

    def __mul__(self, other):
        self._check_compatible(other)
        brows = {}
        for (k, j), b in other._nz.items():
            brows.setdefault(k, []).append((j, b))
        out = {}
        get = out.get
        for (i, k), a in self._nz.items():
            brow = brows.get(k)
            if brow is None:
                continue
            for j, b in brow:
                key = (i, j)
                c = get(key)
                out[key] = a * b if c is None else c + a * b
        return GradedMatrix(self.parity, {k: v for k, v in out.items() if not v.is_zero()})

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = Scalar.from_fraction(c)
        if c.is_zero():
            return GradedMatrix(self.parity, {})
        # a product of nonzero scalars is nonzero
        return GradedMatrix(self.parity, {k: v * c for k, v in self._nz.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.parity == other.parity
            and self._nz == other._nz
        )

    def is_zero(self):
        return not self._nz

    def is_identity(self):
        return self == GradedMatrix.identity(self.parity)

    def _check_compatible(self, other):
        if self.parity != other.parity:
            raise MatrixError("dimension or parity mismatch")

    # -- structure -----------------------------------------------------------

    def entries(self):
        """(i, j, value) for every nonzero entry, in row-major order."""
        for (i, j), v in sorted(self._nz.items(), key=lambda kv: kv[0]):
            yield i, j, v

    def nonzero_count(self):
        return len(self._nz)

    def map_entries(self, fn):
        """Apply fn to every nonzero entry; fn must send zero to zero."""
        out = {}
        for k, v in self._nz.items():
            w = fn(v)
            if not w.is_zero():
                out[k] = w
        return GradedMatrix(self.parity, out)

    def substitute(self, bindings):
        return self.map_entries(lambda a: substitute(a, bindings))

    def __repr__(self):
        lines = ["GradedMatrix(dim=%d, parity=%s)" % (self.dim, list(self.parity))]
        for i, j, v in self.entries():
            lines.append("  (%d,%d) = %s" % (i + 1, j + 1, format_scalar(v)))
        return "\n".join(lines)


def _accumulate(out, items):
    """Add (key, value) pairs into the nonzero map out; drop cancelled keys."""
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


# ---------------------------------------------------------------------------
# graded tensor products


def kron_parity(p1, p2):
    return tuple((a + b) % 2 for a in p1 for b in p2)


def gkron(a, b):
    """Graded Kronecker product; composite index (i,x) -> i*dim(b) + x."""
    n2 = b.dim
    p1, p2 = a.parity, b.parity
    bitems = [(x, y, (p2[x] + p2[y]) % 2, bv) for (x, y), bv in b._nz.items()]
    out = {}
    for (i, j), av in a._nz.items():
        odd_col = p1[j]
        ri, cj = i * n2, j * n2
        for x, y, odd_entry, bv in bitems:
            # Scalars are immutable, so a factor ONE lets the other be shared
            v = bv if av is ONE else av if bv is ONE else av * bv
            out[(ri + x, cj + y)] = -v if odd_col and odd_entry else v
    return GradedMatrix(kron_parity(p1, p2), out)


def flip_legs(m, v, w=(0,)):
    """P12 m P12 for m on V (x) V (x) W, P12 the graded flip of the two V legs.

    v and w are the parity vectors of V and W; the default W is the even
    line, so flip_legs(m, v) is P m P on V (x) V.  P12 sends
    e_a (x) e_b (x) e_c to (-1)**(v[a] v[b]) e_b (x) e_a (x) e_c and is its
    own inverse, so the conjugation only relabels m's indices and signs.
    """
    if m.parity != kron_parity(kron_parity(v, v), w):
        raise MatrixError("dimension or parity mismatch")
    n, k = len(v), len(w)
    legs = itertools.product(range(n), range(n), range(k))
    to = [((b * n + a) * k + c, v[a] & v[b]) for a, b, c in legs]
    out = {}
    for (i, j), x in m._nz.items():
        ki, odd_i = to[i]
        kj, odd_j = to[j]
        out[(ki, kj)] = -x if odd_i != odd_j else x
    return GradedMatrix(m.parity, out)


def rll_residual(r, x, v, w):
    """R12 X13 X23 - X23 X13 R12 for R on V (x) V and X on V (x) W.

    v and w are the parity vectors of V and W.  The flip P12 of the two
    V legs squares to 1 and X13 = P12 X23 P12, so X23 X13 =
    P12 (X13 X23) P12: one product X13 X23 serves both orderings, the
    second through flip_legs, and the residual takes three products.
    X = R gives the graded Yang-Baxter residual, X = L+ the FRT relation
    R L1 L2 = L2 L1 R.
    """
    ident_w = GradedMatrix.identity(w)
    r12 = gkron(r, ident_w)
    x23 = gkron(GradedMatrix.identity(v), x)
    x13_x23 = flip_legs(x23, v, w) * x23
    return r12 * x13_x23 - flip_legs(x13_x23, v, w) * r12


def residual_check(name, residual, detail=""):
    """A Check that passes when residual has no entries, with detail on a pass.

    A failure reads "residual has N nonzero entries"; data["nonzero"] lists
    the first ten as (row, col, text), row-major with 1-based indices.
    """
    count = residual.nonzero_count()
    if count:
        detail = "residual has %d nonzero entries" % count
    first = itertools.islice(residual.entries(), 10)
    return Check(
        name,
        not count,
        detail,
        data={"nonzero": [(i + 1, j + 1, format_scalar(v)) for i, j, v in first]},
    )


def check_gybe(r, v, name):
    """Graded Yang-Baxter residual R12 R13 R23 - R23 R13 R12 for R on V (x) V of parity v."""
    return residual_check(name, rll_residual(r, r, v, v), "residual is zero")


# ---------------------------------------------------------------------------
# inverse, exp and log as one finite series


def _nilpotent_series(n, coeff, kind):
    """sum_k coeff(k) N**k for nilpotent N; MatrixError naming kind unless N**dim == 0."""
    acc = GradedMatrix.identity(n.parity).scale(coeff(0))
    power, k = n, 1
    while not power.is_zero():
        if k >= n.dim:
            raise MatrixError("matrix is not %s" % kind)
        c = coeff(k)
        acc = acc + (power if c == 1 else -power if c == -1 else power.scale(c))
        power = power * n
        k += 1
    return acc


def inverse(a):
    """Inverse of a unipotent a = I + N as the finite series sum_k (-N)**k.

    Every matrix the package inverts is unipotent (the twists, E = e^sigma,
    M = I + theta X+); any other matrix, singular or not, raises MatrixError.
    """
    n = a - GradedMatrix.identity(a.parity)
    result = _nilpotent_series(n, lambda k: (-1) ** k, "unipotent")
    if not (a * result).is_identity():
        raise MatrixError("inverse verification failed")
    return result


def exp_nilpotent(n):
    """exp of a nilpotent matrix, as a finite exact sum."""
    return _nilpotent_series(n, lambda k: Fraction(1, math.factorial(k)), "nilpotent")


def log_unipotent(u):
    """log of I + N with N nilpotent; exp_nilpotent(log_unipotent(u)) == u."""
    n = u - GradedMatrix.identity(u.parity)
    return _nilpotent_series(n, lambda k: Fraction((-1) ** (k + 1), k) if k else 0, "unipotent")


# ---------------------------------------------------------------------------
# JSON form


def to_json_dict(m):
    return {
        "dim": m.dim,
        "parities": list(m.parity),
        "entries": [[i + 1, j + 1, format_scalar(v)] for i, j, v in m.entries()],
    }


def from_json_dict(d):
    """Parse to_json_dict output; reject bad structure, parities, dims and indices."""
    try:
        parity, dim, raw = tuple(d["parities"]), d["dim"], list(d["entries"])
    except (KeyError, TypeError):
        raise MatrixError("matrix JSON needs dim, parities and entries")
    n = len(parity)
    if type(dim) is not int or dim != n:
        raise MatrixError("dim must be the number of parities, %d, got %r" % (n, dim))
    if any(type(p) is not int or p not in (0, 1) for p in parity):
        raise MatrixError("parities must be 0 or 1, got %r" % (list(parity),))
    entries = {}
    for entry in raw:
        if type(entry) is not list or len(entry) != 3 or type(entry[2]) is not str:
            raise MatrixError("entry %r is not [i, j, scalar text]" % (entry,))
        i, j, text = entry
        if type(i) is not int or type(j) is not int or not (1 <= i <= n and 1 <= j <= n):
            raise MatrixError("entry index (%r, %r) outside 1..%d" % (i, j, n))
        if (i - 1, j - 1) in entries:
            raise MatrixError("entry (%d, %d) given twice" % (i, j))
        entries[(i - 1, j - 1)] = parse_scalar(text)
    return GradedMatrix.from_entries(parity, entries)

"""Parity-aware linear algebra over the exact scalar ring.

A GradedMatrix is square, carries a parity vector (one Z2 bit per basis
vector) and stores only its nonzero entries, as two public read-only
slots: terms, one sparse map {(i, j, e_s, e_theta, e_xi): int} from an
entry (0-based) and a monomial s**e_s theta**e_theta xi**e_xi to the
integer numerator of its coefficient, and den, one positive common
denominator.  The pair is kept canonical: no zero numerator,
gcd(den, *numerators) == 1, and den == 1 when terms is empty, so two
matrices are equal exactly when their values are.  Every operation --
sums, products, Kronecker products, flips, exponentials, logarithms --
walks the terms alone, multiplies and adds integers, adds exponents in
the key and reduces once; the one product loop, product, groups
the right factor's terms by row.  Every weighted sum is one pass over
its terms, with one fold of the weights (_fold): all terms are brought
to the lcm of their denominators, each monomial of a weight folds its
rational coefficient into an integer multiplier and adds its exponents
to the keys, so no scaled copy is built, and the sum is reduced once.
A sum of matrices on one space is linear_combination: A + B and A - B
are its two-term cases, scale its one-term case, and the finite series
exp_nilpotent and log1p_nilpotent collect their terms first.
A sum of two-leg tensors, sum c * gkron(a, b), is tensor_sum, and gkron
is its one-term case.  Matrices are immutable: operations return new
matrices, or an operand they leave unchanged.

An xi power is part of every key, so a polynomial in xi is a matrix
too, and the one cut is a slice: product(b, k) is the xi**k part of
the product, and a * b is its whole case, product(b).  A slice groups
b's terms by row and xi power, so each term of a reads only the group
at k minus its own power.  Nothing else is cut: the finite series
above take no order, each exact, one walk N, N**2, ... with * up to
the first vanishing power (_nilpotent_series) of the nilpotent N each
takes, so exp_nilpotent(n) is the whole exponential and
log1p_nilpotent(n) the whole log(I + N).  No matrix is inverted: a
twist identity is checked multiplied out (F A - B F, not F A F^-1 - B),
and where an inverse is needed as a matrix it is exp(-N) of the
nilpotent N whose exponential the matrix is.
Scalars are made only where an entry is read: ``m[i, j]`` (zero where
none is stored), ``entries()`` (the nonzeros in row-major order) and
what reads through them -- map_entries, repr, the JSON form and the
first entries a residual_check reports.

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

tensor_sum and flip_legs are the only code in the package that picks a
Koszul sign.  An operator on two adjacent legs of a triple product is
gkron with an identity; on legs 1 and 3 it is the legs-2-3 placement
conjugated by the graded flip of the two equal first legs, which
flip_legs does by relabelling indices, with signs read from the parity
v of the module V it swaps.  So R21 is flip_legs(R, v), and check_gybe,
like rll_residual, takes v: the parity of V (x) V fixes v only up to a
global flip.
Coproduct words are products of gkron images, and every rule table is
evaluated as one tensor_sum (coproducts.py), so their signs come from
the same rule.  The brackets checked on one module or
one coproduct image all have the even h as first operand, so they are
plain commutators and pick no sign either.

Every matrix identity the package checks is a residual that must be
literally zero; residual_check turns one into a Check whose data lists
the residual's first ten nonzero entries (check_gybe is one call to it).
"""

import itertools
import math
from fractions import Fraction

from .report import Check
from .scalar import Scalar, format_scalar, parse_scalar, substitute


class MatrixError(ArithmeticError):
    pass


_K0 = (0, 0, 0)  # the exponents of a rational weight


def _stored(num, den):
    """num/den as a Scalar coefficient: num itself when den is 1, else Fraction(num, den)."""
    return num if den == 1 else Fraction(num, den)


def _canonical(parity, terms, den):
    """The matrix of terms over den, without zero numerators and the common factor.

    With no terms the gcd is den itself, so an empty map gets den == 1.
    """
    g = math.gcd(den, *terms.values())
    return GradedMatrix(parity, {key: v // g for key, v in terms.items() if v}, den // g)


def _fold(weighted):
    """Every weight's monomials as integer multipliers over one denominator.

    weighted yields (c, d, payload): a weight c (an int, a Fraction or a
    Scalar) on integer numerators over d.  Returns (den, parts), den the
    lcm of every d times a coefficient's denominator, with one
    (e, f, payload) per nonzero monomial c_e s**a theta**b xi**k of a
    weight: e = (a, b, k) and f = c_e den / d, an integer.  A rational c
    is the one monomial with e = (0, 0, 0).
    """
    parts = [(e, v.numerator, v.denominator * d, payload) for c, d, payload in weighted
             for e, v in (c.terms.items() if isinstance(c, Scalar) else [(_K0, c)]) if v]
    den = math.lcm(*(d for _, _, d, _ in parts))
    return den, [(e, den // d * num, payload) for e, num, d, payload in parts]


class GradedMatrix:
    """Immutable square graded matrix: integer numerators over one denominator.

    terms maps (i, j, e_s, e_theta, e_xi) to a nonzero int, and den is
    the positive common denominator.  Build one with from_entries,
    identity or linear_combination.  The constructor itself trusts its
    arguments: a canonical pair under in-range keys.
    """

    __slots__ = ("dim", "parity", "terms", "den")

    def __init__(self, parity, terms, den=1):
        parity = tuple(parity)
        object.__setattr__(self, "dim", len(parity))
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("GradedMatrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(parity):
        return GradedMatrix(parity, {(i, i, 0, 0, 0): 1 for i in range(len(parity))})

    @staticmethod
    def linear_combination(parity, terms):
        """The sum of c * m over the (c, m) terms, added into one map in one pass.

        Every m must have the given parity.  The weights fold as in _fold:
        each monomial c_e s**a theta**b xi**k of a weight scales m's
        numerators by one integer over the common denominator, and
        (a, b, k) is added to the exponents of each key in the same pass.
        A rational weight is the one monomial (0, 0, 0), and a zero weight
        or an empty m adds nothing.
        """
        parity = tuple(parity)
        weighted = []
        for c, m in terms:
            if m.parity != parity:
                raise MatrixError("dimension or parity mismatch")
            weighted.append((c, m.den, m.terms))
        den, parts = _fold(weighted)
        out = {}
        get = out.get
        for (es, et, ex), f, nums in parts:
            for (i, j, s, t, x), v in nums.items():
                key = (i, j, s + es, t + et, x + ex)
                out[key] = get(key, 0) + v * f
        return _canonical(parity, out, den)

    @staticmethod
    def from_entries(parity, entries):
        """entries: {(i, j): Scalar} with 0-based indices; zeros are dropped."""
        n = len(parity)
        for i, j in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise MatrixError("entry (%r, %r) outside a %dx%d matrix" % (i, j, n, n))
        coeffs = [((i, j) + e, c) for (i, j), v in entries.items() for e, c in v.terms.items()]
        # canonical as built: the lcm of reduced denominators shares no factor with all numerators
        den = math.lcm(*(c.denominator for _, c in coeffs))
        terms = {k: c.numerator * (den // c.denominator) for k, c in coeffs}
        return GradedMatrix(parity, terms, den)

    def __getitem__(self, key):
        i, j = key
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("entry (%r, %r) outside a %dx%d matrix" % (i, j, n, n))
        den = self.den
        return Scalar({k[2:]: _stored(c, den) for k, c in self.terms.items() if k[:2] == key})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        return GradedMatrix.linear_combination(self.parity, ((1, self), (1, other)))

    def __sub__(self, other):
        return GradedMatrix.linear_combination(self.parity, ((1, self), (-1, other)))

    def __mul__(self, other):
        return self.product(other)

    def product(self, other, k=None):
        """self * other, or with k given only its xi**k slice, the terms with e_xi == k.

        other's terms are grouped by row, for a slice by row and xi power,
        so each term of self reads only the group that completes its xi
        power to k.
        """
        if self.parity != other.parity:
            raise MatrixError("dimension or parity mismatch")
        groups = {}
        for (r, j, s, t, x), b in other.terms.items():
            groups.setdefault(r if k is None else (r, x), []).append((j, s, t, x, b))
        out = {}
        get = out.get
        for (i, r, s1, t1, x1), a in self.terms.items():
            for j, s2, t2, x2, b in groups.get(r if k is None else (r, k - x1), ()):
                key = (i, j, s1 + s2, t1 + t2, x1 + x2)
                out[key] = get(key, 0) + a * b
        return _canonical(self.parity, out, self.den * other.den)

    def scale(self, c):
        """self times c: an int, a Fraction or a Scalar; linear_combination's one-term case."""
        return GradedMatrix.linear_combination(self.parity, ((c, self),))

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.parity == other.parity
            and self.den == other.den
            and self.terms == other.terms
        )

    def is_zero(self):
        return not self.terms

    def is_identity(self):
        return self == GradedMatrix.identity(self.parity)

    # -- structure -----------------------------------------------------------

    def entries(self):
        """(i, j, value) for every nonzero entry, in row-major order."""
        grouped = {}
        for (i, j, s, t, x), c in self.terms.items():
            grouped.setdefault((i, j), {})[s, t, x] = c
        den = self.den
        for i, j in sorted(grouped):
            yield i, j, Scalar({e: _stored(c, den) for e, c in grouped[i, j].items()})

    def nonzero_count(self):
        """The number of nonzero entries; an entry of several terms counts once."""
        return len({key[:2] for key in self.terms})

    def map_entries(self, fn):
        """Apply fn to every nonzero entry; fn must send zero to zero."""
        return GradedMatrix.from_entries(self.parity, {(i, j): fn(v) for i, j, v in self.entries()})

    def substitute(self, bindings):
        return self.map_entries(lambda a: substitute(a, bindings))

    def __repr__(self):
        lines = ["GradedMatrix(dim=%d, parity=%s)" % (self.dim, list(self.parity))]
        for i, j, v in self.entries():
            lines.append("  (%d,%d) = %s" % (i + 1, j + 1, format_scalar(v)))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# graded tensor products


def kron_parity(p1, p2):
    return tuple((a + b) % 2 for a in p1 for b in p2)


def tensor_sum(p1, p2, terms):
    """The sum of c * gkron(a, b) over the (c, a, b) terms, in one pass.

    Every a has parity p1 and every b parity p2.  The weights fold as in
    linear_combination (_fold), each entry takes gkron's Koszul sign, and
    the sum is reduced once; a term with a zero leg adds nothing.
    """
    p1, p2 = tuple(p1), tuple(p2)
    n2 = len(p2)
    weighted = []
    for c, a, b in terms:
        if a.parity != p1 or b.parity != p2:
            raise MatrixError("dimension or parity mismatch")
        bitems = [(x, y, s, t, e, p2[x] != p2[y], v) for (x, y, s, t, e), v in b.terms.items()]
        weighted.append((c, a.den * b.den, (a.terms, bitems)))
    den, parts = _fold(weighted)
    out = {}
    get = out.get
    for (es, et, ex), f, (anums, bitems) in parts:
        for (i, j, s1, t1, e1), av in anums.items():
            odd_col = p1[j]
            ri, cj = i * n2, j * n2
            s1, t1, e1, av = s1 + es, t1 + et, e1 + ex, av * f
            for x, y, s2, t2, e2, odd_entry, bv in bitems:
                key = (ri + x, cj + y, s1 + s2, t1 + t2, e1 + e2)
                v = av * bv
                out[key] = get(key, 0) + (-v if odd_col and odd_entry else v)
    return _canonical(kron_parity(p1, p2), out, den)


def gkron(a, b):
    """Graded Kronecker product; composite index (i,x) -> i*dim(b) + x; tensor_sum's one-term case."""
    return tensor_sum(a.parity, b.parity, ((1, a, b),))


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
    for (i, j, s, t, x), c in m.terms.items():
        ki, odd_i = to[i]
        kj, odd_j = to[j]
        out[(ki, kj, s, t, x)] = -c if odd_i != odd_j else c
    return GradedMatrix(m.parity, out, m.den)


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
# exp and log as one finite series of a nilpotent


def _nilpotent_series(n, coeff):
    """sum_k coeff(k) N**k for nilpotent N, exact.

    One walk I, N, N**2, ... that ends at the first vanishing power;
    MatrixError unless N**dim == 0.
    """
    terms, power = [(coeff(0), GradedMatrix.identity(n.parity))], n
    while not power.is_zero():
        if len(terms) == n.dim:
            raise MatrixError("matrix is not nilpotent")
        terms.append((coeff(len(terms)), power))
        power = power * n
    return GradedMatrix.linear_combination(n.parity, terms)


def exp_nilpotent(n):
    """exp of a nilpotent matrix, as a finite exact sum.

    exp(N) is unipotent and exp(-N) is its inverse, which is how the
    package writes every inverse it needs; no matrix is inverted.
    """
    return _nilpotent_series(n, lambda k: Fraction(1, math.factorial(k)))


def log1p_nilpotent(n):
    """log(I + N) of a nilpotent N; exp_nilpotent(log1p_nilpotent(n)) == I + N."""
    return _nilpotent_series(n, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


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

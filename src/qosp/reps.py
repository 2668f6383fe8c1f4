"""Finite-dimensional irreducible representations of osp(1|2).

Generators h (even) and v+, v- (odd) obey, with the graded bracket
[a, b] = ab - (-1)**(p(a)p(b)) ba,

    [h, v+-] = +- v+-        {v+, v-} = -h/4

and the even elements X+- = +-4 v+-**2 complete the sl(2) triple;
[h, X+] = 2 X+ follows from [h, v+] = v+ (h is even, so [h, v+**2] =
2 v+**2) and is not checked separately.
Every bracket checked on a module has the even h as its first operand,
so it is the plain commutator h a - a h, and {v+, v-} is written out as
v+ v- + v- v+; no Koszul sign is picked here (gmatrix.gkron and
gmatrix.flip_legs are the only code that does).

The spin-j module has dimension 4j + 1; h acts diagonally with the
integer string 2j, 2j-1, ..., -2j, v+ shifts one step up the string
and v- one step down.  Parities alternate along the string starting
even at the highest weight.

Note the h eigenvalues here are integers (2j down to -2j): the single
superdiagonal v+ must raise the h weight by exactly 1, and q**(h/2)
must stay inside the rational function field in s (q = s**2).

Gauge: every v+ matrix element is 1/2, so that X+ = 4 v+**2 is the
plain two-step upper shift with unit entries; in the fundamental this
forces the image of X+ to be the single matrix unit E13.  The signs
demanded by the anticommutation recursion all sit in v-.

Every element of a module is read as Representation.image(word), a
word being an atom name or a sequence of them (the class docstring
lists the atoms); one cache per module, keyed by the word tuple, holds
each atom and each word once built.  Every identity is a word sum, a
table of (coeff, word) terms read by Representation.word_sum: the
relations OSP_RELATIONS and LT_RELATIONS (check_relations checks each
entry) and the atoms X+, H, V and W (DEFINED_ATOMS).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import scalar as sc
from .gmatrix import GradedMatrix, exp_nilpotent, kron_parity, log_unipotent, residual_check
from .report import Report

SUPPORTED_SPINS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))

XI = sc.xi_var()

# the defining relations of osp(1|2), each a word sum that is zero in a module
OSP_RELATIONS = (
    ("[h, v+] = v+", ((1, ("h", "v+")), (-1, ("v+", "h")), (-1, "v+"))),
    ("[h, v-] = -v-", ((1, ("h", "v-")), (-1, ("v-", "h")), (1, "v-"))),
    ("{v+, v-} = -h/4", ((1, ("v+", "v-")), (1, ("v-", "v+")), (Fraction(1, 4), "h"))),
)

# the defining relations of the FRT generator algebra; E^2 is the word (E, E)
LT_RELATIONS = (
    ("[E, V] = 0", ((1, ("E", "V")), (-1, ("V", "E")))),
    ("[E, W] = 0", ((1, ("E", "W")), (-1, ("W", "E")))),
    ("[H, E] = xi (E^2 - 1)", ((1, ("H", "E")), (-1, ("E", "H")), (-XI, ("E", "E")), (XI, "1"))),
    (
        "[H, V] = xi (V (E^-1 - E) - W)",
        ((1, ("H", "V")), (-1, ("V", "H")), (-XI, ("V", "E^-1")), (XI, ("V", "E")), (XI, "W")),
    ),
    ("[V, V] = xi (1 - E^-2)", ((2, ("V", "V")), (-XI, "1"), (XI, ("E^-1", "E^-1")))),
    ("[W, W] = xi (E^2 - 1)", ((2, ("W", "W")), (-XI, ("E", "E")), (XI, "1"))),
    ("V W + W V = -xi (E - E^-1)", ((1, ("V", "W")), (1, ("W", "V")), (XI, "E"), (-XI, "E^-1"))),
    (
        "V^2 + W^2 = (xi/2) (E^2 - E^-2)",
        (
            (1, ("V", "V")),
            (1, ("W", "W")),
            (XI.scale(Fraction(-1, 2)), ("E", "E")),
            (XI.scale(Fraction(1, 2)), ("E^-1", "E^-1")),
        ),
    ),
    ("V = -W E^-1", ((1, "V"), (1, ("W", "E^-1")))),
    ("xi (E^2 - 1) = 2 W^2", ((XI, ("E", "E")), (-XI, "1"), (-2, ("W", "W")))),
)

# the atoms that are word sums of other words
DEFINED_ATOMS = {
    "X+": ((4, ("v+", "v+")),),
    "H": ((XI, ("h", "E^1")), ((XI * XI).scale(-2), ("v+", "v+", "E^-1"))),
    "V": ((XI.scale(-2), ("v+", "E^-1")),),
    "W": ((XI.scale(2), "v+"),),
}


class RepresentationError(ValueError):
    pass


class Representation:
    """A module given by the images of h, v+ and v-; image(word) reads every element.

    irrep() verifies the spin-j modules it builds.  CoproductMap.module
    builds tensor modules, unverified, with the pair of spins as spin;
    v_minus is None, and v- refused, when the coproduct has no image of
    v-.  The atoms, each built once (X+, H, V, W from DEFINED_ATOMS):

        1, h, v+, v-     the identity and the module's data
        X+               4 (v+ v+)
        sigma            (1/2) log(1 + 2 xi X+), exact as X+ is nilpotent
        E^k, E           exp(k sigma) for integer k; E is E^1
        H                xi (h E^1) - 2 xi^2 (v+ v+ E^-1)
        V, W             -2 xi (v+ E^-1) and 2 xi v+
        s^h, s^-h        the diagonal s**(+-h), for a diagonal h
    """

    def __init__(self, spin, h, v_plus, v_minus, parity):
        self.spin = spin
        self.dim = len(parity)
        self.parity = tuple(parity)
        self.h = h
        self.v_plus = v_plus
        self.v_minus = v_minus
        self.identity = GradedMatrix.identity(self.parity)
        self._cache = {(): self.identity}  # word tuple -> its image

    def verify(self):
        """Raise RepresentationError naming the first relation this module breaks."""
        for name, terms in OSP_RELATIONS:
            if not self.word_sum(terms).is_zero():
                raise RepresentationError("relation %s fails" % name)

    def image(self, word):
        """Matrix image of an atom name or of a word, a sequence of atom names.

        Each word is built once per module, an atom from its defining words
        and a longer word as its prefix times its last atom, and cached
        under its tuple; the empty word is the identity.
        """
        word = (word,) if isinstance(word, str) else tuple(word)
        if word not in self._cache:
            if len(word) == 1:
                self._cache[word] = self._atom(word[0])
            else:
                self._cache[word] = self.image(word[:-1]) * self.image(word[-1])
        return self._cache[word]

    def word_sum(self, terms):
        """The sum of c * image(word) over the (c, word) terms."""
        return GradedMatrix.linear_combination(self.parity, ((c, self.image(w)) for c, w in terms))

    def _atom(self, atom):
        data = {"1": self.identity, "h": self.h, "v+": self.v_plus, "v-": self.v_minus}
        if atom in data:
            if data[atom] is None:
                raise RepresentationError(
                    "module %s has no image of %s" % (spin_text(self.spin), atom)
                )
            return data[atom]
        if atom in DEFINED_ATOMS:
            return self.word_sum(DEFINED_ATOMS[atom])
        if atom == "sigma":
            u = self.identity + self.image("X+").scale(XI.scale(2))
            return log_unipotent(u).scale(Fraction(1, 2))
        if atom == "E":
            return self.image("E^1")
        if atom.startswith("E^") and atom[2:].lstrip("-").isdigit():
            return exp_nilpotent(self.image("sigma").scale(int(atom[2:])))
        if atom in ("s^h", "s^-h"):
            if any(i != j for i, j, _ in self.h.entries()):
                raise RepresentationError("s**h needs a diagonal h")
            sign = 1 if atom == "s^h" else -1
            exps = [sign * self.h[i, i].as_fraction() for i in range(self.dim)]
            if any(e != int(e) for e in exps):
                raise RepresentationError("s**h needs integer exponents")
            return GradedMatrix.from_entries(
                self.parity, {(i, i): sc.s_var(int(e)) for i, e in enumerate(exps)}
            )
        raise RepresentationError("unknown atom %r" % (atom,))

    def __repr__(self):
        return "Representation(spin=%s, dim=%d)" % (self.spin, self.dim)


@cache
def irrep(spin):
    """The spin-j module for j in {1/2, 1, 3/2, 2}, built and verified once per spin.

    Every caller shares its cached word images, atoms among them:
    h, v+ and v- are immutable, every cached element is a function of
    them, and nothing assigns to a module after __init__.  Another
    spelling of a spin returns the module of its Fraction.
    """
    if not isinstance(spin, Fraction):
        return irrep(Fraction(spin))
    if spin not in SUPPORTED_SPINS:
        raise RepresentationError("unsupported spin %s" % spin)
    n = int(4 * spin + 1)
    parity = tuple(k % 2 for k in range(n))
    two_j = int(2 * spin)
    h = GradedMatrix.from_entries(
        parity,
        {(k, k): sc.rational(two_j - k) for k in range(n) if two_j != k},
    )
    half = sc.rational(Fraction(1, 2))
    v_plus = GradedMatrix.from_entries(parity, {(k, k + 1): half for k in range(n - 1)})
    # anticommutator recursion: u_k + u_{k-1} = -(2j - k)/4 with u_k = c_k d_k;
    # its last diagonal entry, u_{n-2} = 2j/4, is checked by verify()
    u_prev = Fraction(0)
    entries = {}
    for k in range(n - 1):
        u_k = Fraction(-(two_j - k), 4) - u_prev
        entries[(k + 1, k)] = sc.rational(2 * u_k)  # d_k = u_k / c_k with c_k = 1/2
        u_prev = u_k
    v_minus = GradedMatrix.from_entries(parity, entries)
    r = Representation(spin, h, v_plus, v_minus, parity)
    r.verify()
    return r


def fundamental_rep():
    """The 3-dimensional module; the image of X+ is the matrix unit E13."""
    return irrep(Fraction(1, 2))


def spin_text(spin):
    """1/2 for an irrep, (1/2, 1) for a tensor module."""
    return "(%s)" % ", ".join(map(spin_text, spin)) if isinstance(spin, tuple) else str(spin)


def lplus_matrix(r):
    """The FRT generator matrix L+ = ((E^-1, V, H), (0, 1, W), (0, 0, E)) on C3 (x) V.

    Its blocks are read as the atoms of r named in the upper triangle.
    """
    rows = (("E^-1", "V", "H"), ("1", "W"), ("E",))  # upper triangle, row by row
    entries = {
        (bi * r.dim + a, bj * r.dim + b): val
        for bi, row in enumerate(rows)
        for bj, name in enumerate(row, bi)
        for a, b, val in r.image(name).entries()
    }
    return GradedMatrix.from_entries(kron_parity(fundamental_rep().parity, r.parity), entries)


def check_relations(relations, m):
    """One residual check per (name, word sum) entry: the word sum is zero in m."""
    return [residual_check(name, m.word_sum(terms)) for name, terms in relations]


def check_lt_relations(r):
    """All defining relations of the FRT generator algebra, in module r."""
    return Report("lt-relations spin %s" % spin_text(r.spin), check_relations(LT_RELATIONS, r))

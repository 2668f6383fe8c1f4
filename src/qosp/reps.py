"""Finite-dimensional irreducible representations of osp(1|2).

Generators h (even) and v+, v- (odd) obey, with the graded bracket
[a, b] = ab - (-1)**(p(a)p(b)) ba,

    [h, v+-] = +- v+-        {v+, v-} = -h/4

and the even elements X+- = +-4 v+-**2 complete the sl(2) triple;
[h, X+] = 2 X+ follows from [h, v+] = v+ (h is even, so [h, v+**2] =
2 v+**2) and is not checked separately.  OSP_RELATIONS is the one table
of the three relations.
Every bracket checked on a module has the even h as its first operand,
so it is the plain commutator h a - a h, and {v+, v-} is written out as
v+ v- + v- v+; no Koszul sign is picked here (gmatrix.gkron and
gmatrix.gflip are the only code that does).

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
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import scalar as sc
from .gmatrix import GradedMatrix, exp_nilpotent, kron_parity, log_unipotent, residual_check
from .report import Report

SUPPORTED_SPINS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))

# the defining relations of osp(1|2): name -> residual in a module m
OSP_RELATIONS = (
    ("[h, v+] = v+", lambda m: m.h * m.v_plus - m.v_plus * m.h - m.v_plus),
    ("[h, v-] = -v-", lambda m: m.h * m.v_minus - m.v_minus * m.h + m.v_minus),
    (
        "{v+, v-} = -h/4",
        lambda m: m.v_plus * m.v_minus + m.v_minus * m.v_plus + m.h.scale(Fraction(1, 4)),
    ),
)


class RepresentationError(ValueError):
    pass


class Representation:
    """A module given by the images of h, v+ and v-, with cached derived elements.

    irrep() verifies the spin-j modules it builds.  CoproductMap.module
    builds tensor modules, unverified, with the pair of spins as spin;
    v_minus is None when the coproduct has no image of v-.
    """

    def __init__(self, spin, h, v_plus, v_minus, parity):
        self.spin = spin
        self.dim = len(parity)
        self.parity = tuple(parity)
        self.h = h
        self.v_plus = v_plus
        self.v_minus = v_minus
        self._cache = {}

    # -- the defining relations --------------------------------------------

    def verify(self):
        """Raise RepresentationError naming the first relation this module breaks."""
        for name, residual in OSP_RELATIONS:
            if not residual(self).is_zero():
                raise RepresentationError("relation %s fails" % name)

    # -- derived elements --------------------------------------------------

    @property
    def x_plus(self):
        if "x_plus" not in self._cache:
            self._cache["x_plus"] = (self.v_plus * self.v_plus).scale(4)
        return self._cache["x_plus"]

    @property
    def identity(self):
        if "identity" not in self._cache:
            self._cache["identity"] = GradedMatrix.identity(self.parity)
        return self._cache["identity"]

    @property
    def sigma(self):
        """sigma = (1/2) log(1 + 2 xi X+), an exact finite sum as X+ is nilpotent."""
        if "sigma" not in self._cache:
            u = self.identity + self.x_plus.scale(sc.xi_var().scale(2))
            self._cache["sigma"] = log_unipotent(u).scale(Fraction(1, 2))
        return self._cache["sigma"]

    def e_power(self, k):
        """exp(k sigma) for integer k; E = e_power(1) satisfies E**2 = 1 + 2 xi X+."""
        key = ("E", k)
        if key not in self._cache:
            self._cache[key] = exp_nilpotent(self.sigma.scale(k))
        return self._cache[key]

    def h_weights(self):
        return [self.h[i, i].as_fraction() for i in range(self.dim)]

    def s_power_h(self, mult):
        """Diagonal matrix s**(mult*h) for a diagonal h; q**(h/2) is s_power_h(1)."""
        key = ("s^h", mult)
        if key not in self._cache:
            if any(i != j for i, j, _ in self.h.entries()):
                raise RepresentationError("s**h needs a diagonal h")
            diag = {}
            for i, lam in enumerate(self.h_weights()):
                e = mult * lam
                if e != int(e):
                    raise RepresentationError("s**h needs integer exponents")
                diag[(i, i)] = sc.s_var(int(e))
            self._cache[key] = GradedMatrix.from_entries(self.parity, diag)
        return self._cache[key]

    def lt_generators(self):
        """H = xi h E - 2 xi^2 v+^2 E^-1, E, V = -2 xi v+ E^-1 and W = 2 xi v+."""
        if "lt" not in self._cache:
            xi = sc.xi_var()
            h, v, e, e_inv = self.h, self.v_plus, self.e_power(1), self.e_power(-1)
            cap_h = (h * e).scale(xi) - (v * v * e_inv).scale((xi * xi).scale(2))
            cap_v = (v * e_inv).scale(xi.scale(-2))
            cap_w = v.scale(xi.scale(2))
            self._cache["lt"] = (cap_h, e, cap_v, cap_w)
        return self._cache["lt"]

    # -- atom images for coproduct evaluation ------------------------------

    def image(self, word):
        """Matrix image of an atom name or of a word, a sequence of atom names.

        Each word is built once per module, as its cached prefix times its
        last atom, and cached under its tuple; the empty word is the identity.
        """
        if isinstance(word, str):
            return self._atom(word)
        word = tuple(word)
        if len(word) < 2:
            return self._atom(word[0]) if word else self.identity
        if word not in self._cache:
            self._cache[word] = self.image(word[:-1]) * self._atom(word[-1])
        return self._cache[word]

    def _atom(self, atom):
        if atom == "1":
            return self.identity
        if atom == "h":
            return self.h
        if atom == "v+":
            return self.v_plus
        if atom == "v-":
            return self.v_minus
        if atom == "X+":
            return self.x_plus
        if atom == "s^h":
            return self.s_power_h(1)
        if atom == "s^-h":
            return self.s_power_h(-1)
        if atom.startswith("E^"):
            return self.e_power(int(atom[2:]))
        raise RepresentationError("unknown atom %r" % (atom,))

    def __repr__(self):
        return "Representation(spin=%s, dim=%d)" % (self.spin, self.dim)


@cache
def irrep(spin):
    """The spin-j module for j in {1/2, 1, 3/2, 2}, built and verified once per spin.

    Every caller shares its cached words, sigma, E^k and FRT generators:
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
    # anticommutator recursion: u_k + u_{k-1} = -(2j - k)/4 with u_k = c_k d_k
    u_prev = Fraction(0)
    entries = {}
    for k in range(n - 1):
        u_k = Fraction(-(two_j - k), 4) - u_prev
        entries[(k + 1, k)] = sc.rational(2 * u_k)  # d_k = u_k / c_k with c_k = 1/2
        u_prev = u_k
    if u_prev != Fraction(two_j, 4):
        raise RepresentationError("weight string fails to close at the bottom")
    v_minus = GradedMatrix.from_entries(parity, entries)
    r = Representation(spin, h, v_plus, v_minus, parity)
    r.verify()
    return r


def fundamental_rep():
    """The 3-dimensional module; the image of X+ is the matrix unit E13."""
    return irrep(Fraction(1, 2))


def _spin_text(spin):
    """1/2 for an irrep, (1/2, 1) for a tensor module."""
    return "(%s)" % ", ".join(map(_spin_text, spin)) if isinstance(spin, tuple) else str(spin)


def lplus_matrix(r):
    """The FRT generator matrix L+ = ((E^-1, V, H), (0, 1, W), (0, 0, E)) on C3 (x) V."""
    cap_h, e, v, w = r.lt_generators()
    rows = ((r.e_power(-1), v, cap_h), (r.identity, w), (e,))  # upper triangle, row by row
    entries = {
        (bi * r.dim + a, bj * r.dim + b): val
        for bi, row in enumerate(rows)
        for bj, blk in enumerate(row, bi)
        for a, b, val in blk.entries()
    }
    return GradedMatrix.from_entries(kron_parity(fundamental_rep().parity, r.parity), entries)


def check_lt_relations(r):
    """All defining relations of the FRT generator algebra, in module r."""
    xi = sc.xi_var()
    cap_h, e, v, w = r.lt_generators()
    ident = r.identity
    e_inv = r.e_power(-1)
    e2 = e * e
    e_inv2 = e_inv * e_inv

    rel = [
        ("[E, V] = 0", e * v - v * e),
        ("[E, W] = 0", e * w - w * e),
        ("[H, E] = xi (E^2 - 1)", cap_h * e - e * cap_h - (e2 - ident).scale(xi)),
        (
            "[H, V] = xi (V (E^-1 - E) - W)",
            cap_h * v - v * cap_h - (v * (e_inv - e) - w).scale(xi),
        ),
        ("[V, V] = xi (1 - E^-2)", (v * v).scale(2) - (ident - e_inv2).scale(xi)),
        ("[W, W] = xi (E^2 - 1)", (w * w).scale(2) - (e2 - ident).scale(xi)),
        ("V W + W V = -xi (E - E^-1)", v * w + w * v + (e - e_inv).scale(xi)),
        (
            "V^2 + W^2 = (xi/2) (E^2 - E^-2)",
            v * v + w * w - (e2 - e_inv2).scale(xi.scale(Fraction(1, 2))),
        ),
        ("V = -W E^-1", v + w * e_inv),
        ("xi (E^2 - 1) = 2 W^2", (e2 - ident).scale(xi) - (w * w).scale(2)),
    ]
    return Report(
        "lt-relations spin %s" % _spin_text(r.spin),
        [residual_check(name, residual) for name, residual in rel],
    )

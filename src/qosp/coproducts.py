"""Coproduct maps, twist conjugation and Hopf-level checks in modules.

A coproduct rule assigns to each generator a formal sum of tensor
terms coeff * (left atoms) (x) (right atoms); evaluation on a pair of
modules replaces every tensor symbol by the graded Kronecker product.
No sign is chosen here: gkron images multiply by the graded rule

    gkron(a, b) gkron(c, d) = (-1)**(p(b)p(c)) gkron(ac, bd),

so the images of h, v+ and v- make r1 (x) r2 a module, cp.module(r1, r2),
in which the coproduct of a word, of sigma or of E^k is its image and
cp.relations (by default reps.OSP_RELATIONS) must hold.  Leg
placements on triple products are gkron with an identity, conjugated by
a graded flip for legs 1 and 3.  Every Koszul sign is decided in
gmatrix.gkron and gmatrix.gflip.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalar as sc
from .gmatrix import (
    GradedMatrix,
    conjugate_by_flip,
    gflip,
    gkron,
    inverse,
    kron_parity,
    residual_check,
    rll_residual,
)
from .matrices import contract_r, f_jordanian, f_super_fund
from .report import Check, Report
from .reps import OSP_RELATIONS, Representation, _spin_text, fundamental_rep, lplus_matrix
from .scalar import rational

class TensorTerm:
    """coeff * (left word) (x) (right word)."""

    __slots__ = ("coeff", "left", "right")

    def __init__(self, coeff, left, right):
        self.coeff = coeff
        self.left = tuple(left)
        self.right = tuple(right)


def evaluate_terms(terms, r1, r2):
    total = GradedMatrix.zeros(kron_parity(r1.parity, r2.parity))
    for t in terms:
        total = total + gkron(r1.image(t.left), r2.image(t.right)).scale(t.coeff)
    return total


class CoproductMap:
    def __init__(self, name, rules, relations=OSP_RELATIONS):
        self.name = name
        self.rules = rules  # generator -> list[TensorTerm]
        self.relations = relations  # (name, residual in module(r1, r2)) pairs

    def evaluate(self, gen, r1, r2):
        return evaluate_terms(self.rules[gen], r1, r2)

    def module(self, r1, r2):
        """r1 (x) r2 with h, v+ and v- acting by their images under this map.

        Unverified: its relations are check_homomorphism's job.
        """
        return Representation(
            (r1.spin, r2.spin),
            *(self.evaluate(g, r1, r2) if g in self.rules else None for g in ("h", "v+", "v-")),
            kron_parity(r1.parity, r2.parity),
        )


def _t(coeff, left, right):
    if isinstance(coeff, (int, Fraction)):
        coeff = rational(coeff)
    return TensorTerm(coeff, left, right)


CLASSICAL = CoproductMap(
    "CLASSICAL",
    {
        "h": [_t(1, ["h"], ["1"]), _t(1, ["1"], ["h"])],
        "v+": [_t(1, ["v+"], ["1"]), _t(1, ["1"], ["v+"])],
        "v-": [_t(1, ["v-"], ["1"]), _t(1, ["1"], ["v-"])],
    },
)


def _q_anticommutator(m):
    """{v+, v-} + (q^h - q^-h)/(4 omega) with q^h = s^(2h), on a tensor module q^h (x) q^h."""
    q_term = (m.s_power_h(2) - m.s_power_h(-2)).scale(sc.inv(sc.omega()).scale(Fraction(1, 4)))
    return m.v_plus * m.v_minus + m.v_minus * m.v_plus + q_term


Q_DEFORMED = CoproductMap(
    "Q_DEFORMED",
    {
        "h": [_t(1, ["h"], ["1"]), _t(1, ["1"], ["h"])],
        "v+": [_t(1, ["v+"], ["s^h"]), _t(1, ["s^-h"], ["v+"])],
        "v-": [_t(1, ["v-"], ["s^h"]), _t(1, ["s^-h"], ["v-"])],
    },
    OSP_RELATIONS[:2] + (("{v+, v-} = -(q^h - q^-h)/(4 omega)", _q_anticommutator),),
)

JORDANIAN = CoproductMap(
    "JORDANIAN",
    {
        "h": [_t(1, ["h"], ["E^-2"]), _t(1, ["1"], ["h"])],
        "v+": [_t(1, ["v+"], ["E^1"]), _t(1, ["1"], ["v+"])],
        "v-": [
            _t(1, ["v-"], ["E^-1"]),
            _t(1, ["1"], ["v-"]),
            _t(sc.xi_var(), ["h"], ["v+", "E^-2"]),
        ],
    },
)

SUPER_JORDANIAN = CoproductMap(
    "SUPER_JORDANIAN",
    {
        "h": [
            _t(1, ["h"], ["E^-2"]),
            _t(1, ["1"], ["h"]),
            _t(sc.xi_var().scale(4), ["v+", "E^-1"], ["v+", "E^-2"]),
        ],
        "v+": [_t(1, ["v+"], ["1"]), _t(1, ["E^1"], ["v+"])],
    },
    OSP_RELATIONS[:1],
)


# ---------------------------------------------------------------------------
# defining-relation checks under a coproduct


def check_homomorphism(cp, r1, r2):
    """cp.relations, evaluated on the tensor module cp.module(r1, r2)."""
    m = cp.module(r1, r2)
    checks = [residual_check(name, residual(m)) for name, residual in cp.relations]
    return Report("homomorphism %s on %s" % (cp.name, _spin_text(m.spin)), checks)


def check_r_intertwines(r_matrix, cp, r):
    """R Delta(x) = Delta^op(x) R for every generator of cp, Delta^op = P Delta P."""
    rep = Report("intertwining %s" % cp.name)
    p = gflip(r.parity)
    for g in cp.rules:
        delta = cp.evaluate(g, r, r)
        residual = r_matrix * delta - conjugate_by_flip(p, delta) * r_matrix
        rep.add(residual_check("R Delta(%s) = Delta_op(%s) R" % (g, g), residual))
    return rep


# ---------------------------------------------------------------------------
# twist conjugation


def check_twist_produces(f, target, r1, r2):
    """F Delta0(x) F^-1 equals the target's image of x, for each rule of target.

    Delta0 is CLASSICAL.  When every rule matches, the module with the
    target's images and F Delta0(y) F^-1 for the other generators is
    CLASSICAL.module(r1, r2) conjugated by F.
    """
    spins = _spin_text((r1.spin, r2.spin))
    rep = Report("twist %s -> %s on %s" % (CLASSICAL.name, target.name, spins))
    f_inv = inverse(f)
    for g in target.rules:
        conj = f * CLASSICAL.evaluate(g, r1, r2) * f_inv
        name = "F Delta(%s) F^-1 matches %s" % (g, target.name)
        rep.add(residual_check(name, conj - target.evaluate(g, r1, r2)))
    return rep


# ---------------------------------------------------------------------------
# cocycle equation and coassociativity for the even twist


def check_cocycle_jordanian(r1, r2, r3):
    """F12 (Delta (x) id)(F) = F23 (id (x) Delta)(F) for the even twist.

    Delta is the primitive coproduct of the undeformed algebra, the one
    the twist equation is stated against: (Delta (x) id)(F) is F on the
    pair (CLASSICAL.module(r1, r2), r3).
    """
    lhs = gkron(f_jordanian(r1, r2), r3.identity) * f_jordanian(CLASSICAL.module(r1, r2), r3)
    rhs = gkron(r1.identity, f_jordanian(r2, r3)) * f_jordanian(r1, CLASSICAL.module(r2, r3))
    name = "cocycle even twist on %s" % _spin_text((r1.spin, r2.spin, r3.spin))
    return residual_check(name, lhs - rhs)


def check_coassociativity_jordanian(r1, r2, r3):
    """(Delta_j (x) id) Delta_j = (id (x) Delta_j) Delta_j on generators.

    (Delta_j (x) id) Delta_j(g) is Delta_j(g) on the pair
    (JORDANIAN.module(r1, r2), r3), and the right side likewise.  gkron
    is associative under the Koszul sign rule, so (A (x) B) (x) C and
    A (x) (B (x) C) are the same matrix.
    """
    rep = Report("coassociativity of the deformed coproduct")
    j12 = JORDANIAN.module(r1, r2)
    j23 = JORDANIAN.module(r2, r3)
    for g in ("h", "v+", "v-"):
        residual = JORDANIAN.evaluate(g, j12, r3) - JORDANIAN.evaluate(g, r1, j23)
        rep.add(residual_check("generator %s" % g, residual))
    return rep


# ---------------------------------------------------------------------------
# FRT relation in an arbitrary module


def frt_check(r):
    """R L1 L2 = L2 L1 R on C3 (x) C3 (x) V: the RLL residual with X = L+."""
    name = "FRT relation in spin %s (%d scalar identities)" % (_spin_text(r.spin), (9 * r.dim) ** 2)
    f = fundamental_rep()
    return residual_check(name, rll_residual(contract_r(), lplus_matrix(r), f.parity, r.parity))


# ---------------------------------------------------------------------------
# coproducts of the FRT generators


def check_l_coproducts():
    """Coproducts of the FRT generators on the fundamental pair.

    The left side takes the FRT generators of the primitive tensor
    module CLASSICAL.module(f, f) and conjugates them by the composed
    twist; the right side assembles the closed forms from generator
    images with graded tensor products.
    """
    f = fundamental_rep()
    cap_h, e, v, w = f.lt_generators()
    e_inv = f.e_power(-1)
    k_mat = f_super_fund() * f_jordanian(f, f)
    k_inv = inverse(k_mat)
    primitive = CLASSICAL.module(f, f).lt_generators()
    lhs = {name: k_mat * m * k_inv for name, m in zip("HEVW", primitive)}
    rhs = {
        "E": gkron(e, e),
        "V": gkron(v, e_inv) + gkron(f.identity, v),
        "W": gkron(w, f.identity) + gkron(e, w),
        "H": gkron(cap_h, e_inv) + gkron(e, cap_h) - gkron(w, v),
    }
    rep = Report("coproducts of the FRT generators")
    for name in ("E", "V", "W", "H"):
        rep.add(residual_check("Delta(%s) matches closed form" % name, lhs[name] - rhs[name]))
    return rep


# ---------------------------------------------------------------------------
# the even-element cross term obstructing a q-deformed even subalgebra


def check_qcoproduct_xplus(r1, r2):
    """Square the deformed coproduct of v+ and extract the cross term.

    Delta_q(v+)**2 = v+**2 (x) q^h + q^-h (x) v+**2 + cross, where the
    cross term is proportional to (v+ q^{-h/2}) (x) (v+ q^{h/2}) with a
    solved coefficient that vanishes at s = 1.  A nonzero cross term at
    generic s is exactly the obstruction to carrying the even
    subalgebra through the deformation.
    """
    rep = Report("even-part cross term")
    dv = Q_DEFORMED.evaluate("v+", r1, r2)
    square = dv * dv
    vsq1 = r1.v_plus * r1.v_plus
    vsq2 = r2.v_plus * r2.v_plus
    qh2 = gkron(vsq1, r2.s_power_h(2))
    qh2b = gkron(r1.s_power_h(-2), vsq2)
    residual = square - qh2 - qh2b
    pattern = gkron(r1.v_plus * r1.s_power_h(-1), r2.v_plus * r2.s_power_h(1))
    # pattern entries are s-monomials, so the first one fixes the coefficient
    first = next(pattern.entries(), None)
    coeff = None if first is None else residual[first[0], first[1]] * sc.inv(first[2])
    ok = coeff is not None and (residual - pattern.scale(coeff)).is_zero()
    rep.add(
        Check(
            "residual is proportional to (v+ q^-h/2) (x) (v+ q^h/2)",
            ok,
            "coefficient %s" % coeff if ok else "no single coefficient",
            data={"coefficient": str(coeff) if coeff is not None else None},
        )
    )
    if ok:
        rep.add(Check("cross coefficient nonzero at generic s", not coeff.is_zero()))
        rep.add(
            Check(
                "cross coefficient vanishes at s = 1",
                sc.limit_at_one(coeff).is_zero(),
            )
        )
    return rep

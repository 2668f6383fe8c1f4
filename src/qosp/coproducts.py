"""Coproduct maps, twist conjugation and Hopf-level checks in modules.

A coproduct rule assigns to each generator a list of tensor terms
(coeff, left word, right word); evaluate_terms sums c * gkron(left,
right) of the words' images on a pair of modules in one tensor_sum.
No sign is chosen here: gkron images multiply by the graded rule

    gkron(a, b) gkron(c, d) = (-1)**(p(b)p(c)) gkron(ac, bd),

so the images of h, v+ and v- make r1 (x) r2 a module, cp.module(r1, r2),
in which the coproduct of a word, of sigma or of E^k is its image and
the word sums cp.relations (by default reps.OSP_RELATIONS) must vanish;
cp.module(cp.module(r1, r2), r3) carries (Delta (x) id) Delta, which
check_coassociativity compares with (id (x) Delta) Delta.  A twist F
carries CLASSICAL to a table of rules, FRT_COPRODUCTS for the FRT
generators H, E, V, W among them, when F Delta0(x) F^-1 equals each
rule, checked multiplied out as F Delta0(x) = rule(x) F with no F^-1
built (check_twist_produces); f_jordanian is the even twist
exp(h (x) sigma) on any pair.  Leg placements on triple products are
gkron with an identity, conjugated by the graded flip gmatrix.flip_legs
for legs 1 and 3, which also gives Delta^op = P Delta P.  Every Koszul
sign is decided in gmatrix.tensor_sum and gmatrix.flip_legs.
"""

from . import scalar as sc
from .gmatrix import (
    exp_nilpotent,
    flip_legs,
    gkron,
    residual_check,
    tensor_sum,
)
from .report import Check, Report
from .reps import (
    OSP_RELATIONS,
    Representation,
    check_relations,
    spin_text,
)


def evaluate_terms(terms, r1, r2):
    """The sum of c * gkron(r1.image(left), r2.image(right)) over (c, left, right) terms.

    One tensor_sum: every term is folded into one pass and reduced once.
    """
    return tensor_sum(r1.parity, r2.parity, [(c, r1.image(a), r2.image(b)) for c, a, b in terms])


class CoproductMap:
    def __init__(self, name, rules, relations=OSP_RELATIONS):
        self.name = name
        self.rules = rules  # generator -> list of (coeff, left word, right word)
        self.relations = relations  # (name, word sum) pairs that vanish in module(r1, r2)

    def module(self, r1, r2):
        """r1 (x) r2 with h, v+ and v- acting by their images under this map.

        Unverified: its relations are check_homomorphism's job.
        """
        gens = ("h", "v+", "v-")
        images = (evaluate_terms(self.rules[g], r1, r2) if g in self.rules else None for g in gens)
        return Representation((r1.spin, r2.spin), *images)


CLASSICAL = CoproductMap(
    "CLASSICAL",
    {
        "h": [(1, "h", "1"), (1, "1", "h")],
        "v+": [(1, "v+", "1"), (1, "1", "v+")],
        "v-": [(1, "v-", "1"), (1, "1", "v-")],
    },
)

# {v+, v-} = -(q^h - q^-h)/(4 omega) times 4 omega, so that no scalar is divided:
# 4 omega {v+, v-} + q^h - q^-h as a word sum, q^h being the word (s^h, s^h)
_FOUR_OMEGA = sc.omega().scale(4)
_Q_TERMS = (
    (_FOUR_OMEGA, ("v+", "v-")),
    (_FOUR_OMEGA, ("v-", "v+")),
    (1, ("s^h", "s^h")),
    (-1, ("s^-h", "s^-h")),
)
Q_DEFORMED = CoproductMap(
    "Q_DEFORMED",
    {
        "h": CLASSICAL.rules["h"],
        "v+": [(1, "v+", "s^h"), (1, "s^-h", "v+")],
        "v-": [(1, "v-", "s^h"), (1, "s^-h", "v-")],
    },
    OSP_RELATIONS[:2] + (("{v+, v-} = -(q^h - q^-h)/(4 omega)", _Q_TERMS),),
)

JORDANIAN = CoproductMap(
    "JORDANIAN",
    {
        "h": [(1, "h", "E^-2"), (1, "1", "h")],
        "v+": [(1, "v+", "E^1"), (1, "1", "v+")],
        "v-": [(1, "v-", "E^-1"), (1, "1", "v-"), (sc.xi_var(), "h", ("v+", "E^-2"))],
    },
)

SUPER_JORDANIAN = CoproductMap(
    "SUPER_JORDANIAN",
    {
        "h": [
            (1, "h", "E^-2"),
            (1, "1", "h"),
            (sc.xi_var().scale(4), ("v+", "E^-1"), ("v+", "E^-2")),
        ],
        "v+": [(1, "v+", "1"), (1, "E^1", "v+")],
    },
    OSP_RELATIONS[:1],
)

# the FRT generators' coproducts, F Delta0(x) F^-1 for the composed twist F = F_s F_j
FRT_COPRODUCTS = {
    "E": [(1, "E", "E")],
    "V": [(1, "V", "E^-1"), (1, "1", "V")],
    "W": [(1, "W", "1"), (1, "E", "W")],
    "H": [(1, "H", "E^-1"), (1, "E", "H"), (-1, "W", "V")],
}


# ---------------------------------------------------------------------------
# defining-relation checks under a coproduct


def check_homomorphism(cp, r1, r2):
    """cp.relations, evaluated on the tensor module cp.module(r1, r2)."""
    m = cp.module(r1, r2)
    name = "homomorphism %s on %s" % (cp.name, spin_text(m.spin))
    return Report(name, check_relations(cp.relations, m))


def check_r_intertwines(r_matrix, cp, r):
    """R Delta(x) = Delta^op(x) R for every generator of cp, Delta^op = P Delta P."""
    rep = Report("intertwining %s" % cp.name)
    m = cp.module(r, r)
    for g in cp.rules:
        delta = m.image(g)
        residual = r_matrix * delta - flip_legs(delta, r.parity) * r_matrix
        rep.add(residual_check("R Delta(%s) = Delta_op(%s) R" % (g, g), residual))
    return rep


# ---------------------------------------------------------------------------
# twist conjugation


def check_twist_produces(f, rules, r1, r2):
    """F Delta0(x) F^-1 equals the evaluation of rules[x], one check per rule.

    Delta0 is CLASSICAL, and x is any atom of its module r1 (x) r2: a
    generator, or one of the FRT generators H, E, V, W.  Each check reads
    the residual F Delta0(x) - rules[x] F, with no F^-1: a twist is
    unipotent, so invertible, and the residual is zero exactly when the
    conjugate equals the rule.  When every rule
    of a coproduct map matches, the module with its images, and
    F Delta0(y) F^-1 for each generator y without a rule, is
    CLASSICAL.module(r1, r2) conjugated by F.
    """
    primitive = CLASSICAL.module(r1, r2)
    checks = []
    for g, terms in rules.items():
        residual = f * primitive.image(g) - evaluate_terms(terms, r1, r2) * f
        checks.append(residual_check("Delta(%s) matches closed form" % g, residual))
    return checks


# ---------------------------------------------------------------------------
# the even twist, its cocycle equation, and coassociativity


def f_jordanian(r1, r2):
    """Even twist matrix exp(h (x) sigma) on a pair of modules."""
    return exp_nilpotent(gkron(r1.h, r2.image("sigma")))


def check_cocycle_jordanian(r1, r2, r3):
    """F12 (Delta (x) id)(F) = F23 (id (x) Delta)(F) for the even twist.

    Delta is the primitive coproduct of the undeformed algebra, the one
    the twist equation is stated against: (Delta (x) id)(F) is F on the
    pair (CLASSICAL.module(r1, r2), r3).
    """
    lhs = gkron(f_jordanian(r1, r2), r3.identity) * f_jordanian(CLASSICAL.module(r1, r2), r3)
    rhs = gkron(r1.identity, f_jordanian(r2, r3)) * f_jordanian(r1, CLASSICAL.module(r2, r3))
    name = "cocycle even twist on %s" % spin_text((r1.spin, r2.spin, r3.spin))
    return residual_check(name, lhs - rhs)


def check_coassociativity(cp, r1, r2, r3):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on each generator with a rule in cp.

    (Delta (x) id) Delta(g) is the image of g in the module
    cp.module(cp.module(r1, r2), r3), and the right side likewise.  gkron
    is associative under the Koszul sign rule, so (A (x) B) (x) C and
    A (x) (B (x) C) are the same matrix.
    """
    left = cp.module(cp.module(r1, r2), r3)
    right = cp.module(r1, cp.module(r2, r3))
    return [residual_check("generator %s" % g, left.image(g) - right.image(g)) for g in cp.rules]


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
    square = Q_DEFORMED.module(r1, r2).image(("v+", "v+"))
    squares = [(1, ("v+", "v+"), ("s^h", "s^h")), (1, ("s^-h", "s^-h"), ("v+", "v+"))]
    residual = square - evaluate_terms(squares, r1, r2)
    pattern = evaluate_terms([(1, ("v+", "s^-h"), ("v+", "s^h"))], r1, r2)
    # pattern entries are units c*s^k, and v+ is nonzero on every module, so the first one
    # exists and fixes the coefficient
    i, j, unit = next(pattern.entries())
    coeff = residual[i, j] * sc.inv(unit)
    ok = (residual - pattern.scale(coeff)).is_zero()
    rep.add(
        Check(
            "residual is proportional to (v+ q^-h/2) (x) (v+ q^h/2)",
            ok,
            "coefficient %s" % coeff if ok else "no single coefficient",
            data={"coefficient": str(coeff)},
        )
    )
    if ok:
        rep.add(Check("cross coefficient nonzero at generic s", not coeff.is_zero()))
        rep.add(
            Check(
                "cross coefficient vanishes at s = 1",
                sc.substitute(coeff, {"s": sc.ONE}).is_zero(),
            )
        )
    return rep

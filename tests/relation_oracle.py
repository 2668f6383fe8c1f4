"""The module relations and defined atoms written out as matrix algebra.

The reference that the word-sum tables of qosp are checked against,
entry for entry: reps.OSP_RELATIONS, the q-anticommutator of
Q_DEFORMED.relations, reps.LT_RELATIONS and reps.DEFINED_ATOMS.  Each
function maps a module to (name, matrix) pairs built from its h, v+ and
v- by products, sums and scalings alone; no element is read from a
word-sum table.
"""

from fractions import Fraction

from qosp import scalar as sc
from qosp.gmatrix import exp_nilpotent, log1p_nilpotent


def osp_residuals(m):
    """[h, v+] = v+, [h, v-] = -v- and {v+, v-} = -h/4."""
    h, vp, vm = m.h, m.v_plus, m.v_minus
    return [
        ("[h, v+] = v+", h * vp - vp * h - vp),
        ("[h, v-] = -v-", h * vm - vm * h + vm),
        ("{v+, v-} = -h/4", vp * vm + vm * vp + h.scale(Fraction(1, 4))),
    ]


def q_anticommutator_residual(m):
    """4 omega {v+, v-} + q^h - q^-h, q^h = s^h s^h: {v+, v-} = -(q^h - q^-h)/(4 omega)
    with no scalar divided."""
    s_h, s_minus_h = m.image("s^h"), m.image("s^-h")
    anticommutator = m.v_plus * m.v_minus + m.v_minus * m.v_plus
    return anticommutator.scale(sc.omega().scale(4)) + s_h * s_h - s_minus_h * s_minus_h


def defined_atoms(m):
    """X+ = 4 v+^2 and the FRT generators H, V, W, with E^k = (1 + 2 xi X+)^(k/2)."""
    xi = sc.xi_var()
    x_plus = (m.v_plus * m.v_plus).scale(4)
    log_u = log1p_nilpotent(x_plus.scale(xi.scale(2)))
    e, e_inv = (exp_nilpotent(log_u.scale(Fraction(k, 2))) for k in (1, -1))
    return [
        ("X+", x_plus),
        ("H", (m.h * e).scale(xi) - (m.v_plus * m.v_plus * e_inv).scale((xi * xi).scale(2))),
        ("V", (m.v_plus * e_inv).scale(xi.scale(-2))),
        ("W", m.v_plus.scale(xi.scale(2))),
    ]


def lt_residuals(m):
    """The ten defining relations of the FRT generator algebra."""
    xi = sc.xi_var()
    atoms = dict(defined_atoms(m))
    cap_h, v, w, ident = atoms["H"], atoms["V"], atoms["W"], m.identity
    log_u = log1p_nilpotent(atoms["X+"].scale(xi.scale(2)))
    e, e_inv = (exp_nilpotent(log_u.scale(Fraction(k, 2))) for k in (1, -1))
    e2 = e * e
    e_inv2 = e_inv * e_inv
    return [
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

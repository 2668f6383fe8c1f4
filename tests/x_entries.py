"""The nine entries switched on by the similarity transform, written out.

G R G^-1 with G = M (x) M keeps every entry of the q-deformed R-matrix
and adds x1..x9 at X_POSITIONS (0-based).  The values are the paper's
explicit forms in q = s**2, omega = q - 1/q and theta, each written in
the ring of Laurent polynomials: x4 = (omega theta)**2 / (1 + q) is
omega theta**2 (1 - q**-1), as omega = (q - 1)(q + 1)/q.
"""

from qosp import scalar as sc
from qosp.scalar import ONE

X_POSITIONS = {
    "x1": (0, 2), "x2": (0, 4), "x3": (0, 6), "x4": (0, 8),
    "x5": (1, 5), "x6": (2, 8), "x7": (3, 7), "x8": (4, 8), "x9": (6, 8),
}


def x_entries():
    w, th, qi = sc.omega(), sc.theta_var(), sc.q_var(-1)
    b = -(w * sc.s_var(-1))
    c = b
    return {
        "x1": -(w * th), "x2": b * th, "x3": w * th * qi,
        "x4": w * th * th * (ONE - qi), "x5": -(w * th), "x6": -(w * th * qi),
        "x7": w * th, "x8": -(c * th), "x9": w * th,
    }

"""The conjectured closed form of the odd-twist kernel Phi, for the tests.

With tau = tanh(sigma/2), so that f_1 = 1 - tau, the conjecture reads

    Phi = sum_k (-1)**k/(2k+1) g_k (x) g_k,    g_k = f_1 tau**k.

In u = xi X+ the series tau(u) = u f_1(u)**2 / 2 starts at u**1, so
through u**u_order on each leg only k <= u_order contributes and every
coefficient D[m, n] of the table is a finite sum of rationals built from
the f_1 series alone.  qosp.phi solves the same table shell by shell;
these tests compare the two.

solve_without_f1 is the solver with nothing known: it re-derives the
f_1 expansion on one pair.  split_twist builds the odd twist of a table
with no exponential, the reference for qosp.phi.build_f_super.
"""

import math
from fractions import Fraction

from qosp import scalar as sc
from qosp.coproducts import evaluate_terms
from qosp.phi import _add_symmetric, _order_check, _PairSeries, build_f_super, f1_series_coeffs


def _series_mul(a, b, order):
    """The product of two power series in u, through u**order."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def closed_form_table(u_order):
    """{(m, n): D[m, n]} of the conjectured Phi, through u**u_order on each leg."""
    f1 = f1_series_coeffs(u_order)
    tau = [Fraction(0)] + [c / 2 for c in _series_mul(f1, f1, u_order - 1)]
    table, g = {}, f1
    for k in range(u_order + 1):
        weight = Fraction((-1) ** k, 2 * k + 1)
        for m, a in enumerate(g):
            for n, b in enumerate(g):
                table[m, n] = table.get((m, n), 0) + weight * a * b
        g = _series_mul(g, tau, u_order)
    return {key: c for key, c in table.items() if c}


def solve_without_f1(order, r1, r2):
    """The table one pair solves with no f_1 known, and whether it holds.

    The shells run from t = 0 with m >= 0, through the order solve_phi
    reaches; the exact residual of the table is checked through
    xi**(2*order - 1), where solve_phi checks its own.  Returns the table,
    zero entries dropped, and whether every shell was consistent and R(F)
    of the table vanishes.
    """
    xi_order = 2 * order - 1
    pair = _PairSeries(r1, r2)
    shells = [[(m, t - m) for m in range(t // 2 + 1)] for t in range(xi_order)]
    found, _, _, consistent = pair.solve({}, shells)
    table = {}
    for key, val in found.items():
        _add_symmetric(table, key, val)
    table = {key: c for key, c in table.items() if c}
    check = _order_check("residual zero", pair.residual(build_f_super(table, r1, r2)), xi_order)
    return table, consistent and check.passed


def _mul2(a, b, keep):
    """The product of two series {(m, n): Fraction} in u1, u2, without the keys keep rejects."""
    out = {}
    for (m1, n1), x in a.items():
        for (m2, n2), y in b.items():
            key = (m1 + m2, n1 + n2)
            if keep(key):
                out[key] = out.get(key, 0) + x * y
    return {key: c for key, c in out.items() if c}


def split_twist(table, r1, r2):
    """The odd twist of a table on a module pair, C(theta^2) - 2 xi (v+ (x) v+) P S(theta^2).

    With x = v+ (x) 1 and y = 1 (x) v+, which anticommute, the exponent
    of build_f_super is T = -2 xi x y P with P = sum D[m, n] u1**m u2**n,
    u1 = xi X+ (x) 1 and u2 = 1 (x) xi X+.  As X+ = 4 v+ v+, the u's are
    even and commute with x and y, and (x y)**2 = -x**2 y**2 =
    -u1 u2 / (16 xi**2), so T**2 = -theta**2 with theta**2 = u1 u2 P**2 / 4.
    Hence exp(T) = C - 2 xi x y P S, C = sum_k (-1)**k theta**(2k) / (2k)!
    and S = sum_k (-1)**k theta**(2k) / (2k+1)!, for any table, symmetric
    or not.  u1**m is xi**m X+**m (x) 1, zero on r1 unless 2m < dim r1, so
    each leg is cut there and the series end; x y u1**m u2**n is
    xi**(m+n) (v+ X+**m) (x) (v+ X+**n), and F is one evaluate_terms.
    """
    def keep(key):
        return 2 * key[0] < r1.dim and 2 * key[1] < r2.dim

    p = {key: Fraction(c) for key, c in table.items() if c and keep(key)}
    theta2 = _mul2(_mul2(p, p, keep), {(1, 1): Fraction(1, 4)}, keep)
    c, s, power, k = {}, {}, {(0, 0): Fraction(1)}, 0
    while power:
        for series, fact in ((c, math.factorial(2 * k)), (s, math.factorial(2 * k + 1))):
            for key, v in power.items():
                series[key] = series.get(key, 0) + v * (-1) ** k / fact
        power, k = _mul2(power, theta2, keep), k + 1
    terms = [(sc.xi_var(m + n).scale(v), ("X+",) * m, ("X+",) * n) for (m, n), v in c.items() if v]
    terms += [(sc.xi_var(m + n + 1).scale(-2 * v), ("v+",) + ("X+",) * m, ("v+",) + ("X+",) * n)
              for (m, n), v in _mul2(p, s, keep).items()]
    return evaluate_terms(terms, r1, r2)

"""The conjectured closed form of the odd-twist kernel Phi, for the tests.

With tau = tanh(sigma/2), so that f_1 = 1 - tau, the conjecture reads

    Phi = sum_k (-1)**k/(2k+1) g_k (x) g_k,    g_k = f_1 tau**k.

In u = xi X+ the series tau(u) = u f_1(u)**2 / 2 starts at u**1, so
through u**u_order on each leg only k <= u_order contributes and every
coefficient D[m, n] of the table is a finite sum of rationals built from
the f_1 series alone.  qosp.phi solves the same table shell by shell;
these tests compare the two.

solve_without_f1 is the solver with nothing known: it re-derives the
f_1 expansion on one pair.
"""

from fractions import Fraction

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

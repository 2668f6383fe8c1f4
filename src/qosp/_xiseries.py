"""Truncated xi series over the rationals, the kernel of the odd-twist solver.

The solver's matrices carry no s and no theta.  A series is one sparse
map {(k, i, j): Fraction} from a power k of xi and an entry (i, j) to
its coefficient, with no zero stored and no k above the matched order.
One product gives the truncated product and a single slice.
"""

import math
from fractions import Fraction

from . import scalar as sc
from .gmatrix import GradedMatrix, MatrixError


def from_matrix(m, order):
    """m through xi**order; an entry with s, theta or a denominator raises MatrixError."""
    out = {}
    for i, j, v in m.entries():
        if not v.den.is_const() or any(es or eth for es, eth, _ in v.num.terms):
            raise MatrixError("entry (%d, %d) is not rational in xi: %s" % (i + 1, j + 1, v))
        out.update(((k, i, j), c) for (_, _, k), c in v.num.terms.items() if k <= order)
    return out


def to_matrix(a, parity):
    """The GradedMatrix of the series a."""
    entries = {}
    for (k, i, j), c in a.items():
        entries[i, j] = entries.get((i, j), sc.ZERO) + sc.xi_var(k).scale(c)
    return GradedMatrix.from_entries(parity, entries)


def add(x, y, c=1):
    """x + c y, without cancelled entries."""
    out = dict(x)
    for key, v in y.items():
        v = v if c == 1 else c * v
        out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}


def mul(a, b, order, low=0):
    """The terms of the product a b from xi**low through xi**order."""
    rows = {}
    for (q, k, j), d in b.items():
        rows.setdefault(k, []).append((q, j, d))
    for row in rows.values():  # by power, so a row's walk can stop at the order
        row.sort(key=lambda e: e[0])
    out = {}
    for (p, i, k), c in a.items():
        for q, j, d in rows.get(k, ()):
            if p + q > order:
                break
            if p + q >= low:
                key = (p + q, i, j)
                out[key] = out[key] + c * d if key in out else c * d
    return {key: v for key, v in out.items() if v}


def exp(t, dim, order):
    """exp(t) through xi**order as the finite series sum_k t**k/k!; t starts at xi**1."""
    acc, power, k = {(0, i, i): Fraction(1) for i in range(dim)}, t, 1
    while power:
        acc = add(acc, power, Fraction(1, math.factorial(k)))
        power = mul(power, t, order)
        k += 1
    return acc

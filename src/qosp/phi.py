"""Order-by-order construction of the odd part of the composed twist.

The odd factor is searched for in the form

    F(s) = exp(-2 xi (v (x) v) Phi),    Phi = sum_k f_k (x) f_k,

where every f_k is a function of the nilpotent element u = xi X+ and
f_1 = 2/(e^sigma + 1) is known in closed form.  Because the f_k enter
Phi quadratically, Phi is held as one table {(m, n): Fraction} of its
symmetric bilinear coefficients

    D[m, n] = coefficient of u**m (x) u**n in Phi.

Every function here takes or returns that table: f1_table is
f_1 (x) f_1, and rank_one_terms splits a table back into the paper's
f_k for output only.  The coefficients make the intertwining identity

    F(s) . Dj(v+) . F(s)^-1 = v+ (x) 1 + e^sigma (x) v+

linear in the unknowns at each xi order: the D entries with
m + n = t - 1 first contribute at xi**t, and lower shells are already
known when shell t is processed.  Solutions are reported per module
pair; agreement across pairs is the strongest consistency statement
available, since no closed form beyond f_1 is known.

The shell residual is affine in the shell unknowns, exactly.  Shell t
is matched at xi**(t+1).  Its unknown d = D[m, n] = D[n, m] enters the
exponent as d B with

    B = -2 xi**(t+1) (v u**m (x) v u**n + v u**n (x) v u**m),

while every known term T starts at xi**1.  Products of d B with T or
with itself start at xi**(t+2), so exp(T + d B) = exp(T) + d B through
xi**(t+1).  The residual R(F) = F Dj(v+) - (v+ (x) 1 + E (x) v+) F is
linear in F, so its slice is

    R(exp(T))[xi**(t+1)] + sum_d d R(B)[xi**(t+1)],

one exponential per shell for the constant part and one closed-form
column R(B)[xi**(t+1)] per unknown.  Known terms with m + n > t start above the slice
and are left out of T.  B is homogeneous of degree t + 1, so only the
xi**0 slices of Dj(v+) and Dsj(v+) reach its column.

Every computation through an xi order runs on the integer series of
_xiseries.  F and F^-1 = exp(-T) are summed from one pass over the
powers of T and checked by F F^-1 = I.  Each unit exponent B is built
once per pair, as the series of exponent_from_bilinear on that one
coefficient.  F Delta0(v-) F^-1, exact in xi on a module pair, is not
built here: coproducts.check_twist_produces states what it satisfies.
"""

from __future__ import annotations

from fractions import Fraction

from . import _xiseries as xs
from . import scalar as sc
from .coproducts import JORDANIAN, SUPER_JORDANIAN
from .gmatrix import GradedMatrix, MatrixError, exp_nilpotent, gkron, kron_parity
from .report import Check, Report
from .reps import _spin_text


MAX_ORDER = 4  # highest series term index solve_phi accepts


def f1_series_coeffs(order):
    """Taylor coefficients of 2/(1 + sqrt(1 + 2u)) up to u**order.

    Derived from sqrt(1 + 2u) = sum binom(1/2, k) (2u)**k via
    f1(u) = (sqrt(1 + 2u) - 1)/u; the constant term is 1.
    """
    # sqrt(1+2u) coefficients
    root = []
    binom = Fraction(1)
    for k in range(order + 2):
        root.append(binom * Fraction(2) ** k)
        binom *= Fraction(1, 2) - k
        binom /= k + 1
    return [root[k + 1] for k in range(order + 1)]


def f1_table(u_order=8):
    """The table of f_1 (x) f_1, through u**u_order on each leg."""
    f1 = f1_series_coeffs(u_order)
    return {(m, n): a * b for m, a in enumerate(f1) for n, b in enumerate(f1)}


def rank_one_terms(table):
    """Split a symmetric table into the paper's rank-one terms f_k (x) f_k.

    Returns a list over k of (left, right) coefficient dicts whose outer
    products sum to the table.  Pivots are taken along the leading
    powers m = k - 1, so term k starts at u**(k-1) on both legs.  The
    split is for output only; every computation reads the table.
    """
    work = {k: Fraction(v) for k, v in table.items() if v}
    if any(c != work.get((n, m), 0) for (m, n), c in work.items()):
        raise ValueError("bilinear form is not symmetric")
    terms = []
    while work:
        m = min(min(m, n) for m, n in work)
        piv = work.get((m, m))
        if not piv:
            raise ValueError("leading coefficient D[%d,%d] vanishes" % (m, m))
        right = {n: c for (mm, n), c in work.items() if mm == m}
        left = {n: c / piv for n, c in right.items()}
        # subtract the outer product, including entries absent from work
        for a, x in left.items():
            for b, y in right.items():
                c = work.pop((a, b), 0) - x * y
                if c:
                    work[a, b] = c
        terms.append((left, right))
    return terms


# ---------------------------------------------------------------------------
# evaluation on a module pair


def exponent_from_bilinear(table, r1, r2):
    """-2 xi sum D[m,n] (v u**m) (x) (v u**n) as one graded matrix, u = xi X+.

    v u**m is xi**m times the module's cached image of the word v+ X+^m.
    """
    total = GradedMatrix.zeros(kron_parity(r1.parity, r2.parity))
    for (m, n), c in table.items():
        blk = gkron(r1.image(("v+",) + ("X+",) * m), r2.image(("v+",) + ("X+",) * n))
        total = total + blk.scale(sc.xi_var(m + n + 1).scale(-2 * c))
    return total


def build_f_super(table, r1, r2):
    """The odd twist factor on a module pair."""
    return exp_nilpotent(exponent_from_bilinear(table, r1, r2))


def _order_check(name, residual, order):
    """Check that residual vanishes through xi**order, naming the first failing order."""
    bad = min((k for k, _, _ in residual[0] if k <= order), default=None)
    detail = "" if bad is None else "first failing xi order %d" % bad
    return Check(name, bad is None, detail, data={"first_failing_order": bad})


class _PairSeries:
    """Dj(v+), Dsj(v+) and the unit exponents of one module pair, through xi**order."""

    def __init__(self, r1, r2, order):
        self.reps, self.dim, self._units = (r1, r2), r1.dim * r2.dim, {}
        self.dj = xs.from_matrix(JORDANIAN.evaluate("v+", r1, r2), order)
        self.target = xs.from_matrix(SUPER_JORDANIAN.evaluate("v+", r1, r2), order)

    def exponent(self, table, order):
        """exponent_from_bilinear through xi**order, from units cached per (m, n)."""
        t = xs.ZERO
        for (m, n), c in table.items():
            if c and m + n < order:
                if (m, n) not in self._units:
                    unit = exponent_from_bilinear({(m, n): 1}, *self.reps)
                    self._units[m, n] = xs.from_matrix(unit, m + n + 1)
                t = xs.add(t, self._units[m, n], c)
        return t

    def residual(self, f, order, low=0):
        """R(F) = F Dj(v+) - Dsj(v+) F from xi**low through xi**order."""
        return xs.add(xs.mul(f, self.dj, order, low), xs.mul(self.target, f, order, low), -1)

    def twist(self, table, order):
        """F = exp(T) and F^-1 = exp(-T) through xi**order, checked by F F^-1 = I."""
        f, f_inv = xs.exp(self.exponent(table, order), self.dim, order)
        if xs.mul(f, f_inv, order) != xs.identity(self.dim):
            raise MatrixError("inverse verification failed")
        return f, f_inv


def check_intertwining_s(table, r1, r2, order):
    """Both forms of the intertwining identity, modulo xi**(order+1).

    The main form is R(F) = (F Dj(v+) F^-1 - Dsj(v+)) F = 0; as F = 1 + O(xi)
    it first fails at the order where F Dj(v+) F^-1 = Dsj(v+) does.
    """
    pair = _PairSeries(r1, r2, order)
    f, f_inv = pair.twist(table, order)
    main = _order_check("F Dj(v+) F^-1 = v+ (x) 1 + E (x) v+", pair.residual(f, order), order)
    lhs = xs.mul(pair.dj, xs.mul(f_inv, f_inv, order), order)
    aux = _order_check("Dj(v+) F^-2 = v+ (x) 1 + E (x) v+", xs.add(lhs, pair.target, -1), order)
    name = "odd-twist intertwining %s through xi^%d" % (_spin_text((r1.spin, r2.spin)), order)
    return Report(name, [main, aux])


# ---------------------------------------------------------------------------
# linear solving over the rationals


def solve_linear_system(rows, rhs, ncols):
    """Exact Gaussian elimination.

    rows: list of coefficient lists; rhs: list of Fractions; ncols: the
    number of unknowns.  Returns (solution dict, free columns,
    inconsistent rows).  The solution maps determined columns to values;
    free columns, and pivot columns whose value depends on them, are left
    out of it.  solve_phi holds those unknowns at 0 in later shells and
    lists them as pinned.
    """
    m = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, len(m)):
            if m[rr][c]:
                piv = rr
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [x - f * y for x, y in zip(m[rr], m[r])]
        pivots[c] = r
        r += 1
    inconsistent = [
        rr for rr in range(r, len(m)) if not any(m[rr][:ncols]) and m[rr][ncols]
    ]
    free = [c for c in range(ncols) if c not in pivots]
    solution = {}
    for c, rr in pivots.items():
        if any(m[rr][cc] for cc in free):
            continue  # depends on free parameters
        solution[c] = m[rr][ncols]
    return solution, free, inconsistent


def solve_phi(order, pairs, include_f1=True):
    """Solve the bilinear coefficients shell by shell on each pair.

    order is the maximal term index k; shells m + n = t are solved for
    ascending t by matching the xi**(t+1) slice of the intertwining
    identity, where the shell unknowns enter linearly.  With
    include_f1 the closed form of f_1 is folded in and the unknowns
    are restricted to m, n >= 1; without it the solver re-derives the
    f_1 expansion itself.  Returns the pooled table of Phi (the known
    part plus each coefficient as the first pair to determine it found
    it, zero entries dropped) and a report with one check per pair, the
    cross-pair consistency and the residual on every pair.

    Evidence in the check data: each pair check lists under "pinned"
    the unknowns it left undetermined (held at 0 from then on), and the
    cross-pair check lists under "determined_by" the pairs that
    determined each coefficient.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError("series order must be between 1 and %d" % MAX_ORDER)
    spins = [(r1.spin, r2.spin) for r1, r2 in pairs]
    for k, pair in enumerate(spins):
        if pair in spins[:k]:
            raise ValueError("repeated module pair %s:%s" % pair)
    rep = Report("odd-twist series solve, order %d" % order)
    if include_f1:
        known = f1_table(max(2 * (order - 1), 2))
        min_power = 1
        shells = range(2, 2 * order - 1)
    else:
        known = {}
        min_power = 0
        shells = range(0, 2 * order - 1)

    pair_series = [_PairSeries(r1, r2, 2 * order - 1) for r1, r2 in pairs]
    pooled = dict(known)
    reference = {}  # each coefficient as the first pair to determine it found it
    determined_by = {}
    consistent = True
    for pair in pair_series:
        solved = dict(known)
        findings = {}
        statuses = []
        pinned = []
        for t in shells:
            shell = [(m, t - m) for m in range(min_power, t // 2 + 1)]
            rows, rhs = _shell_equations_sym(solved, shell, pair, t + 1)
            solution, free, inconsistent = solve_linear_system(
                rows, rhs, ncols=len(shell)
            )
            if inconsistent:
                statuses.append(("shell %d" % t, "inconsistent", inconsistent))
                break
            for idx, key in enumerate(shell):
                if idx in solution:
                    _add_symmetric(solved, key, solution[idx])
                    findings[key] = solution[idx]
                else:
                    pinned.append(key)
            if free:
                statuses.append(
                    ("shell %d" % t, "underdetermined", [shell[c] for c in free])
                )
            else:
                statuses.append(("shell %d" % t, "unique", None))
        spins = tuple(r.spin for r in pair.reps)
        for key, val in findings.items():
            if key not in reference:
                reference[key] = val
                _add_symmetric(pooled, key, val)
            elif reference[key] != val:
                consistent = False
            determined_by.setdefault(str(key), []).append([str(a) for a in spins])
        detail = "; ".join(
            "%s %s%s" % (name, state, "" if extra is None else " " + str(extra))
            for name, state, extra in statuses
        ) or "nothing to solve"
        rep.add(
            Check(
                "pair %s solve" % _spin_text(spins),
                all(state != "inconsistent" for _, state, _ in statuses),
                detail + " -> " + str({str(k): str(v) for k, v in findings.items()}),
                data={
                    "solved": {str(k): str(v) for k, v in findings.items()},
                    "pinned": [str(k) for k in pinned],
                },
            )
        )
    rep.add(
        Check(
            "cross-pair consistency",
            consistent,
            str({str(k): str(v) for k, v in reference.items()}),
            data={
                "solved": {str(k): str(v) for k, v in reference.items()},
                "determined_by": determined_by,
            },
        )
    )

    # verify residuals on every pair through the solved orders
    table = {key: val for key, val in pooled.items() if val}
    max_xi = (max(m + n for m, n in pooled) + 1) if pooled else 1
    xi_order = min(max_xi, 2 * order - 1)
    for pair in pair_series:
        f, _ = pair.twist(table, xi_order)
        spins = _spin_text(tuple(r.spin for r in pair.reps))
        name = "residual zero on %s through xi^%d" % (spins, xi_order)
        rep.add(_order_check(name, pair.residual(f, xi_order), xi_order))
    return table, rep


def _add_symmetric(table, key, value):
    """Add value to D[m, n] and, off the diagonal, to D[n, m]."""
    m, n = key
    table[m, n] = table.get((m, n), 0) + value
    if m != n:
        table[n, m] = table.get((n, m), 0) + value


def _shell_equations_sym(known, shell, pair, order):
    """Shell equations with (m,n) and (n,m) tied to one unknown.

    order is the matched xi power t + 1.  The base is the xi**order slice
    of the residual of exp(known terms below the slice), and the column
    of (m, n) that of the unit exponent B on (m, n) and (n, m) (module
    docstring).
    """
    base = pair.residual(xs.exp(pair.exponent(known, order), pair.dim, order)[0], order, order)
    columns = [
        pair.residual(pair.exponent({(m, n): 1, (n, m): 1}, order), order, order)
        for m, n in shell
    ]
    # one equation per entry that is nonzero in base or any column, row-major
    positions = sorted({key for col in (base, *columns) for key in col[0]})
    rows = [[xs.coefficient(col, key) for col in columns] for key in positions]
    rhs = [-xs.coefficient(base, key) for key in positions]
    return rows, rhs

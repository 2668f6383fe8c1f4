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
pair, and agreement across pairs is their consistency statement.  Beyond
f_1 only a conjectured closed form is known,
Phi = sum_k (-1)**k/(2k+1) g_k (x) g_k with g_k = f_1 tanh(sigma/2)**k;
the tests compare every coefficient the solver determines with it
(tests/phi_oracle.closed_form_table).

The shell residual is affine in the shell unknowns, exactly.  Shell t
is matched at xi**(t+1).  Its unknown d = D[m, n] = D[n, m] enters the
exponent as d B with

    B = -2 xi**(t+1) (v u**m (x) v u**n + v u**n (x) v u**m),

while every known term T starts at xi**1.  Products of d B with T or
with itself start at xi**(t+2), so exp(T + d B) = exp(T) + d B through
xi**(t+1).  The residual R(F) = F Dj(v+) - (v+ (x) 1 + E (x) v+) F is
linear in F, so its slice is

    R(exp(T))[xi**(t+1)] + sum_d d R(B)[xi**(t+1)],

the slice of the twist of the known terms for the constant part, and
one closed-form column R(B)[xi**(t+1)] per unknown.  B is homogeneous of
degree t + 1, so only the xi**0 slices of Dj(v+) and Dsj(v+) reach its
column.

Every twist is exact on its module pair: the exponent is nilpotent
there, so exp(T) is a finite sum and no xi order enters its build.  The
twist is formed once per pair and grown.  Every unit exponent is
c (v u**m) (x) (v u**n), odd (x) odd; two such terms commute, since both
orders carry the Koszul sign -1 and the powers of v+ commute.  So
exp(T + T_t) = exp(T) exp(T_t) exactly, where T_t is shell t's part of
the exponent.  _PairSeries.solve forms F = build_f_super of the known
table once, reads each shell's constant part from F, and after a shell
that solved a nonzero value multiplies in that shell's own twist, so F
is at every shell the exact twist of the table it has solved.  Known
terms with m + n > t start above the slice xi**(t+1), so holding them
in F from the start leaves the slice unchanged.  No F^-1 is built.
solve_phi's residual on a pair is _order_check of the exact R of a fresh
twist of the pooled table, never the grown F, so it witnesses the solve
independently; the check reads it through xi**(2*order - 1), as the
pooled table is truncated there.  The shell slices are the only cut,
the xi**(t+1) slice of a GradedMatrix product (product(b, k)).  A shell
row is read at each full key (i, j, e_s, e_theta, e_xi) of the slice,
so the rows are exact for any Laurent coefficient of Dj(v+) and
Dsj(v+); each distinct equation is kept once, which changes no pivot,
value or consistency of the solve.
check_intertwining_s is exact: it forms one exponential F and one
product G = Dsj(v+) F and reads both of its forms from them uncut:
R(F) = F Dj(v+) - G, and Dj(v+) - G F = (Dj(v+) F^-2 - Dsj(v+)) F^2.
build_f_super is the one way a table becomes a twist, exp_nilpotent of
its exponent, and exponent_from_bilinear the one
way a table becomes an exponent T: it reads the table as rule terms
(-2 D[m, n] xi**(m+n+1), v+ X+^m, v+ X+^n), which
coproducts.evaluate_terms sums in one tensor_sum, as it does a coproduct
rule; nothing is cached beyond the modules' own word images.  As
X+ = 4 v+ v+ and v+ is nilpotent, v+ X+^m vanishes on a module of
dimension d unless 2m + 1 < d, so an entry past that bound on either
leg is not read and its word is never built.
F Delta0(v-) F^-1, exact in xi on a module pair, is not built here:
coproducts.check_twist_produces states what it satisfies.
"""

from fractions import Fraction

from . import scalar as sc
from .coproducts import JORDANIAN, SUPER_JORDANIAN, evaluate_terms
from .gmatrix import exp_nilpotent
from .report import Check, Report
from .reps import spin_text


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
    """-2 xi sum D[m,n] (v u**m) (x) (v u**n) on a module pair, u = xi X+.

    The entry (m, n) is the rule term (-2 D[m, n] xi**(m+n+1), v+ X+^m,
    v+ X+^n); every nonzero entry with 2m + 1 < dim r1 and 2n + 1 < dim r2
    is a term, as v+ X+^m vanishes past that bound (module docstring),
    and evaluate_terms sums them in one tensor_sum.
    """
    terms = [(sc.xi_var(m + n + 1).scale(-2 * c), ("v+",) + ("X+",) * m, ("v+",) + ("X+",) * n)
             for (m, n), c in table.items() if c and 2 * m + 1 < r1.dim and 2 * n + 1 < r2.dim]
    return evaluate_terms(terms, r1, r2)


def build_f_super(table, r1, r2):
    """The odd twist factor exp(T) of a table on a module pair, exact."""
    return exp_nilpotent(exponent_from_bilinear(table, r1, r2))


def _order_check(name, residual, through=None):
    """Check that a residual vanishes through xi**through, or at every power by default.

    Powers above through are not read; the lowest power read is named as
    the first failing order.
    """
    bad = min((x for *_, x in residual.terms if through is None or x <= through), default=None)
    detail = "" if bad is None else "first failing xi order %d" % bad
    return Check(name, bad is None, detail, data={"first_failing_order": bad})


class _PairSeries:
    """The odd-twist solver on one module pair.

    Holds the pair, Dj(v+) and Dsj(v+).  solve forms the twist of the
    known table once and multiplies in each solved shell; the shell
    equations read the twist they are given.  The twists and the residual
    are exact; a shell's equations read only the residual's slice at the
    shell's matched power.
    """

    def __init__(self, r1, r2):
        self.reps = (r1, r2)
        self.dj, self.target = (evaluate_terms(cp.rules["v+"], r1, r2) for cp in (JORDANIAN, SUPER_JORDANIAN))

    def residual(self, f, k=None):
        """R(F) = F Dj(v+) - Dsj(v+) F, or with k given only its xi**k slice."""
        return f.product(self.dj, k) - self.target.product(f, k)

    def shell_equations(self, f, shell):
        """Shell equations with (m,n) and (n,m) tied to one unknown.

        The shell's keys all have m + n = t, matched at xi**(t+1); f is the
        twist of every value known so far, and its terms above the slice do
        not reach it.  The base is the xi**(t+1) slice of R(f), and the
        column of (m, n) that of the unit exponent B on (m, n) and (n, m)
        (module docstring).  A key of the slice gives one equation; the keys
        are read row-major and each distinct equation is kept once, at its
        first key.
        """
        t = sum(shell[0])
        base = self.residual(f, t + 1)
        units = (exponent_from_bilinear({(m, n): 1, (n, m): 1}, *self.reps) for m, n in shell)
        cols = [self.residual(b, t + 1) for b in units] + [base]
        keys = sorted({key for col in cols for key in col.terms})
        equations = dict.fromkeys(tuple(Fraction(col.terms.get(k, 0), col.den) for col in cols) for k in keys)
        return [list(eq[:-1]) for eq in equations], [-eq[-1] for eq in equations]

    def solve(self, known, shells):
        """Solve the shells in turn on top of the known table.

        Each shell is the list of its unknown keys (m, n), m <= n, all with
        m + n = t; it is matched at xi**(t+1), on the known table plus every
        value found below it.  The exact twist of the known table is formed
        once, and the exact twist of each shell's values is multiplied into
        it.  Returns the found values {(m, n): Fraction},
        the pinned keys (left undetermined and held at 0 from then on), one
        note per shell and whether every shell was consistent.  Solving stops
        at the first inconsistent shell.
        """
        f = build_f_super(known, *self.reps)
        found, pinned, notes = {}, [], []
        for shell in shells:
            t = sum(shell[0])
            rows, rhs = self.shell_equations(f, shell)
            solution, free, inconsistent = solve_linear_system(rows, rhs, len(shell))
            if inconsistent:
                notes.append("shell %d inconsistent %s" % (t, inconsistent))
                return found, pinned, notes, False
            step = {}
            for idx, key in enumerate(shell):
                if idx in solution:
                    _add_symmetric(step, key, solution[idx])
                    found[key] = solution[idx]
                else:
                    pinned.append(key)
            f = f * build_f_super(step, *self.reps)
            state = "underdetermined %s" % [shell[c] for c in free] if free else "unique"
            notes.append("shell %d %s" % (t, state))
        return found, pinned, notes, True


def check_intertwining_s(table, r1, r2):
    """Both forms of the intertwining identity, exactly.

    Both forms read the one exact twist F = exp(T) of the table and the
    one product G = Dsj(v+) F, uncut.  The main form is
    R(F) = F Dj(v+) - G = (F Dj(v+) F^-1 - Dsj(v+)) F = 0; as
    F = 1 + O(xi) it first fails at the order where F Dj(v+) F^-1 = Dsj(v+)
    does.  The second form is Dj(v+) - G F = (Dj(v+) F^-2 - Dsj(v+)) F^2,
    which for the same reason first fails where Dj(v+) F^-2 = Dsj(v+) does.
    """
    pair = _PairSeries(r1, r2)
    f = build_f_super(table, r1, r2)
    g = pair.target * f
    main = _order_check("F Dj(v+) F^-1 = v+ (x) 1 + E (x) v+", f * pair.dj - g)
    aux = _order_check("Dj(v+) F^-2 = v+ (x) 1 + E (x) v+", pair.dj - g * f)
    name = "odd-twist intertwining %s, exact" % spin_text((r1.spin, r2.spin))
    return Report(name, [main, aux])


# ---------------------------------------------------------------------------
# linear solving over the rationals


def solve_linear_system(rows, rhs, ncols):
    """Exact Gaussian elimination.

    rows: list of coefficient lists; rhs: list of Fractions; ncols: the
    number of unknowns.  Returns (solution dict, free columns,
    inconsistent rows).  The solution maps determined columns to values;
    free columns, and pivot columns whose value depends on them, are left
    out of it.  _PairSeries.solve holds those unknowns at 0 in later
    shells and lists them as pinned.
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


def solve_phi(order, pairs):
    """Solve the bilinear coefficients shell by shell on each pair.

    order is the maximal term index k, any k >= 1.  The closed form of
    f_1 is known, so the unknowns are the D[m, n] with m, n >= 1, in the
    shells m + n = t for t = 2 .. 2*order - 2; _PairSeries.solve solves
    them on each pair.  Returns the pooled table of Phi (f_1 (x) f_1 plus each
    coefficient as the first pair to determine it found it, zero entries
    dropped) and a report with one check per pair, the cross-pair
    consistency and the residual R(F) of the pooled table on every pair
    through xi**(2*order - 1), _order_check of the exact R of a fresh twist
    of the table, not of the twist each solve grew.

    Evidence in the check data: each pair check lists under "pinned"
    the unknowns it left undetermined (held at 0 from then on), and the
    cross-pair check lists under "determined_by" the pairs that
    determined each coefficient.
    """
    if order < 1:
        raise ValueError("series order must be 1 or more, got %d" % order)
    if not pairs:
        raise ValueError("no module pair to solve on")
    spins = [(r1.spin, r2.spin) for r1, r2 in pairs]
    for k, pair in enumerate(spins):
        if pair in spins[:k]:
            raise ValueError("repeated module pair %s:%s" % pair)
    rep = Report("odd-twist series solve, order %d" % order)
    known = f1_table(max(2 * (order - 1), 2))
    xi_order = 2 * order - 1
    shells = [[(m, t - m) for m in range(1, t // 2 + 1)] for t in range(2, xi_order)]
    pair_series = [_PairSeries(r1, r2) for r1, r2 in pairs]
    reference = {}  # each coefficient as the first pair to determine it found it
    determined_by = {}
    consistent = True
    for pair, pair_spins in zip(pair_series, spins):
        found, pinned, notes, solvable = pair.solve(known, shells)
        for key, val in found.items():
            if reference.setdefault(key, val) != val:
                consistent = False
            determined_by.setdefault(str(key), []).append([str(a) for a in pair_spins])
        solved = {str(k): str(v) for k, v in found.items()}
        detail = "; ".join(notes) or "nothing to solve"
        rep.add(
            Check(
                "pair %s solve" % spin_text(pair_spins),
                solvable,
                detail + " -> " + str(solved),
                data={"solved": solved, "pinned": [str(k) for k in pinned]},
            )
        )
    solved = {str(k): str(v) for k, v in reference.items()}
    rep.add(
        Check(
            "cross-pair consistency",
            consistent,
            str(solved),
            data={"solved": solved, "determined_by": determined_by},
        )
    )

    pooled = dict(known)
    for key, val in reference.items():
        _add_symmetric(pooled, key, val)
    table = {key: val for key, val in pooled.items() if val}
    for pair, pair_spins in zip(pair_series, spins):
        name = "residual zero on %s through xi^%d" % (spin_text(pair_spins), xi_order)
        rep.add(_order_check(name, pair.residual(build_f_super(table, *pair.reps)), xi_order))
    return table, rep


def _add_symmetric(table, key, value):
    """Add value to D[m, n] and, off the diagonal, to D[n, m]."""
    m, n = key
    table[m, n] = table.get((m, n), 0) + value
    if m != n:
        table[n, m] = table.get((n, m), 0) + value

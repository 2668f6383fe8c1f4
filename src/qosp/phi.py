"""Order-by-order construction of the odd part of the composed twist.

The odd factor is searched for in the form

    F(s) = exp(-2 xi (v (x) v) Phi),    Phi = sum_k f_k (x) f_k,

where every f_k is a function of the nilpotent element u = xi X+ and
f_1 = 2/(e^sigma + 1) is known in closed form.  Because the f_k enter
Phi quadratically, the solver works with the symmetric bilinear
coefficients

    D[m, n] = coefficient of u**m (x) u**n in Phi,

which make the intertwining identity

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
and are left out of T.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalar as sc
from .coproducts import CLASSICAL, JORDANIAN, SUPER_JORDANIAN
from .gmatrix import GradedMatrix, exp_nilpotent, gkron, inverse, kron_parity
from .report import Check, Report


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


class PhiSeries:
    """Symmetric bilinear expansion of the twist exponent kernel.

    terms is a list over k of (left, right) coefficient dicts mapping
    u-powers to rationals; the bilinear form is the sum of the outer
    products of the pairs and must be symmetric.
    """

    def __init__(self, max_order, terms):
        self.max_order = max_order
        self.terms = terms
        for m, n in self.support():
            if self.bilinear(m, n) != self.bilinear(n, m):
                raise ValueError("bilinear form is not symmetric")

    @staticmethod
    def f1_only(u_order=8):
        coeffs = {m: c for m, c in enumerate(f1_series_coeffs(u_order))}
        return PhiSeries(1, [(coeffs, dict(coeffs))])

    @staticmethod
    def from_bilinear(bilinear):
        """Split a symmetric coefficient matrix into rank-one pairs.

        Pivots are taken along the leading powers m = k - 1, which
        realizes the expected structure where term k starts at
        u**(k-1) on both legs; the realized number of terms becomes
        the order of the series.
        """
        work = {k: Fraction(v) for k, v in bilinear.items() if v}
        terms = []
        while work:
            m = min(min(m, n) for m, n in work)
            piv = work.get((m, m))
            if not piv:
                raise ValueError("leading coefficient D[%d,%d] vanishes" % (m, m))
            row = {n: c for (mm, n), c in work.items() if mm == m}
            left = {n: c / piv for n, c in row.items()}
            right = dict(row)
            new = {}
            for (a, b), c in work.items():
                c2 = c - left.get(a, Fraction(0)) * right.get(b, Fraction(0))
                if c2:
                    new[(a, b)] = c2
            work = new
            terms.append((left, right))
        return PhiSeries(max(len(terms), 1), terms)

    def support(self):
        keys = set()
        for left, right in self.terms:
            for m in left:
                for n in right:
                    keys.add((m, n))
        return keys

    def bilinear(self, m, n):
        total = Fraction(0)
        for left, right in self.terms:
            total += left.get(m, Fraction(0)) * right.get(n, Fraction(0))
        return total

    def bilinear_dict(self):
        return {(m, n): self.bilinear(m, n) for m, n in self.support() if self.bilinear(m, n)}


# ---------------------------------------------------------------------------
# evaluation on a module pair


def exponent_from_bilinear(bilinear, r1, r2):
    """-2 xi sum D[m,n] (v u**m) (x) (v u**n) as one graded matrix."""
    xi = sc.xi_var()
    total = GradedMatrix.zeros(kron_parity(r1.parity, r2.parity))
    for (m, n), c in bilinear.items():
        if not c:
            continue
        blk = gkron(r1.vu_power(m), r2.vu_power(n))
        total = total + blk.scale(xi.scale(-2 * c))
    return total


def build_f_super(phi, r1, r2, xi_order=None):
    """The odd twist factor on a module pair, optionally xi-truncated."""
    t = exponent_from_bilinear(phi.bilinear_dict(), r1, r2)
    f = exp_nilpotent(t)
    if xi_order is not None:
        f = f.drop_xi_above(xi_order)
    return f


def _first_failing_order(residual, xi_order):
    for r in range(xi_order + 1):
        if not residual.xi_coefficient(r).is_zero():
            return r
    return None


def _check_main_intertwining(phi, r1, r2, order, dj, target):
    """F^-1 and the check F Dj(v+) F^-1 = Dsj(v+) modulo xi**(order+1)."""
    f = build_f_super(phi, r1, r2, xi_order=order)
    f_inv = inverse(f).drop_xi_above(order)
    bad = _first_failing_order((f * dj * f_inv - target).drop_xi_above(order), order)
    return f_inv, Check(
        "F Dj(v+) F^-1 = v+ (x) 1 + E (x) v+",
        bad is None,
        "" if bad is None else "first failing xi order %d" % bad,
        data={"first_failing_order": bad},
    )


def check_intertwining_s(phi, r1, r2, order):
    """Both forms of the intertwining identity, modulo xi**(order+1)."""
    rep = Report(
        "odd-twist intertwining (%s, %s) through xi^%d" % (r1.spin, r2.spin, order)
    )
    dj = JORDANIAN.evaluate("v+", r1, r2)
    target = SUPER_JORDANIAN.evaluate("v+", r1, r2)
    f_inv, main = _check_main_intertwining(phi, r1, r2, order, dj, target)
    rep.add(main)
    aux = (dj * (f_inv * f_inv) - target).drop_xi_above(order)
    bad_aux = _first_failing_order(aux, order)
    rep.add(
        Check(
            "Dj(v+) F^-2 = v+ (x) 1 + E (x) v+",
            bad_aux is None,
            "" if bad_aux is None else "first failing xi order %d" % bad_aux,
            data={"first_failing_order": bad_aux},
        )
    )
    return rep


# ---------------------------------------------------------------------------
# linear solving over the rationals


def solve_linear_system(rows, rhs, ncols=None):
    """Exact Gaussian elimination.

    rows: list of coefficient lists; rhs: list of Fractions.  Returns
    (solution dict, free columns, inconsistent rows).  The solution
    maps determined columns to values; free columns, and pivot columns
    whose value depends on them, are left out of it.  solve_phi holds
    those unknowns at 0 in later shells and lists them as pinned.
    """
    m = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
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


def solve_phi(order, pairs, include_f1=True, shells=None):
    """Solve the bilinear coefficients shell by shell on each pair.

    order is the maximal term index k; shells m + n = t are solved for
    ascending t by matching the xi**(t+1) slice of the intertwining
    identity, where the shell unknowns enter linearly.  With
    include_f1 the closed form of f_1 is folded in and the unknowns
    are restricted to m, n >= 1; without it the solver re-derives the
    f_1 expansion itself.  Returns the PhiSeries of the pooled
    solution plus a report with a per-pair consistency statement.

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
        f1 = f1_series_coeffs(max(2 * (order - 1), 2))
        known = {
            (m, n): f1[m] * f1[n]
            for m in range(len(f1))
            for n in range(len(f1))
        }
        min_power = 1
        if shells is None:
            shells = range(2, 2 * (order - 1) + 1)
    else:
        known = {}
        min_power = 0
        if shells is None:
            shells = range(0, 2 * order - 1)

    images = [
        (JORDANIAN.evaluate("v+", r1, r2), SUPER_JORDANIAN.evaluate("v+", r1, r2))
        for r1, r2 in pairs
    ]
    per_pair = []
    for (r1, r2), (dj, target) in zip(pairs, images):
        solved = dict(known)
        findings = {}
        statuses = []
        pinned = []
        for t in shells:
            shell = [
                (m, t - m)
                for m in range(min_power, t - min_power + 1)
                if t - m >= min_power and m <= t - m
            ]
            if not shell:
                continue
            rows, rhs = _shell_equations_sym(solved, shell, r1, r2, t + 1, dj, target)
            solution, free, inconsistent = solve_linear_system(
                rows, rhs, ncols=len(shell)
            )
            if inconsistent:
                statuses.append(("shell %d" % t, "inconsistent", inconsistent))
                break
            for idx, key in enumerate(shell):
                if idx in solution:
                    m, n = key
                    solved[(m, n)] = solved.get((m, n), Fraction(0)) + solution[idx]
                    if m != n:
                        solved[(n, m)] = solved.get((n, m), Fraction(0)) + solution[idx]
                    findings[key] = solution[idx]
                else:
                    pinned.append(key)
            if free:
                statuses.append(
                    ("shell %d" % t, "underdetermined", [shell[c] for c in free])
                )
            else:
                statuses.append(("shell %d" % t, "unique", None))
        per_pair.append(((r1.spin, r2.spin), findings, statuses, pinned))

    # cross-pair consistency on shared determined coefficients
    consistent = True
    reference = {}
    determined_by = {}
    for (spins, findings, _, _) in per_pair:
        for key, val in findings.items():
            if key in reference and reference[key] != val:
                consistent = False
            reference.setdefault(key, val)
            determined_by.setdefault(str(key), []).append([str(a) for a in spins])
    for (spins, findings, statuses, pinned) in per_pair:
        detail = "; ".join(
            "%s %s%s" % (name, state, "" if extra is None else " " + str(extra))
            for name, state, extra in statuses
        ) or "nothing to solve"
        rep.add(
            Check(
                "pair (%s, %s) solve" % (spins[0], spins[1]),
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

    pooled = dict(known)
    for key, val in reference.items():
        m, n = key
        pooled[(m, n)] = pooled.get((m, n), Fraction(0)) + val
        if m != n:
            pooled[(n, m)] = pooled.get((n, m), Fraction(0)) + val
    # verify residuals on every pair through the solved orders
    max_xi = (max(m + n for m, n in pooled) + 1) if pooled else 1
    phi = PhiSeries.from_bilinear(pooled) if pooled else PhiSeries(order, [])
    xi_order = min(max_xi, 2 * order - 1)
    for (r1, r2), (dj, target) in zip(pairs, images):
        _, chk = _check_main_intertwining(phi, r1, r2, xi_order, dj, target)
        rep.add(
            Check(
                "residual zero on (%s, %s) through xi^%d" % (r1.spin, r2.spin, xi_order),
                chk.passed,
                chk.detail,
            )
        )
    return phi, rep


def _shell_equations_sym(known_bilinear, shell, r1, r2, order, dj, target):
    """Shell equations with (m,n) and (n,m) tied to one unknown.

    order is the matched xi power t + 1; dj and target are Dj(v+) and
    Dsj(v+) on (r1, r2).  The residual is affine in the shell unknowns
    (module docstring), so the base residual needs one exponential of
    the known terms below the slice, and the column of (m, n) is the
    xi**order slice of B dj - target B, with B the exponent of the unit
    form on (m, n) and (n, m).
    """
    def slice_of(f):
        return ((f * dj) - (target * f)).xi_coefficient(order)

    below = {(m, n): c for (m, n), c in known_bilinear.items() if m + n < order}
    f = exp_nilpotent(exponent_from_bilinear(below, r1, r2)).drop_xi_above(order)
    base = slice_of(f)
    columns = [
        slice_of(exponent_from_bilinear({(m, n): 1, (n, m): 1}, r1, r2))
        for m, n in shell
    ]
    # one equation per entry that is nonzero in base or any column, row-major
    positions = sorted({(i, j) for m in (base, *columns) for i, j, _ in m.entries()})
    rows = [[col[i, j].as_fraction() for col in columns] for i, j in positions]
    rhs = [-base[i, j].as_fraction() for i, j in positions]
    return rows, rhs


# ---------------------------------------------------------------------------
# the reconstructed coproduct of the lowering generator


def compute_dsj_vminus(phi, r1, r2, order):
    """Conjugate the deformed v- coproduct by the odd factor.

    Returns the truncated image together with homomorphism residual
    checks carried out modulo xi**(order+1).
    """
    f = build_f_super(phi, r1, r2, xi_order=order)
    f_inv = inverse(f).drop_xi_above(order)
    inner = JORDANIAN.evaluate("v-", r1, r2)
    dvm = (f * inner * f_inv).drop_xi_above(order)
    dvp = SUPER_JORDANIAN.evaluate("v+", r1, r2)
    dh = SUPER_JORDANIAN.evaluate("h", r1, r2)
    rep = Report("reconstructed Delta(v-) on (%s, %s)" % (r1.spin, r2.spin))
    anti = (dvp * dvm + dvm * dvp + dh.scale(Fraction(1, 4))).drop_xi_above(order)
    rep.add(
        Check(
            "{Delta(v+), Delta(v-)} = -Delta(h)/4 mod xi^%d" % (order + 1),
            anti.is_zero(),
        )
    )
    comm = (dh * dvm - dvm * dh + dvm).drop_xi_above(order)
    rep.add(
        Check(
            "[Delta(h), Delta(v-)] = -Delta(v-) mod xi^%d" % (order + 1),
            comm.is_zero(),
        )
    )
    zero_order = dvm.xi_coefficient(0)
    prim = CLASSICAL.evaluate("v-", r1, r2)
    rep.add(Check("xi^0 term is primitive", (zero_order - prim).is_zero()))
    return dvm, rep

"""The explicit 9x9 matrices and the matrix-level identities.

Everything is built over the exact scalar field with q = s**2:

* the q-deformed R-matrix of the 3-dimensional module,
* its similarity transform by the tensor square of M = I + theta X+,
* the contracted R-matrix obtained via theta = xi/omega, q -> 1,
* the block-diagonal even twist matrix exp(h (x) sigma),
* the odd twist matrix exp(-2 xi v+ (x) v+) with its flip-inverse property,

together with the triangularity and twist-factorization checks.  M and
the twist matrices are built from the fundamental module's elements, read
as Representation.image words (X+, sigma, v+).  Each named matrix
is also frozen as a JSON fixture; constructions are diffed against the
fixtures entry by entry.  The parameterless builders are memoized (a
GradedMatrix is immutable, so one build serves all callers).
"""

from __future__ import annotations

import json
import os
from functools import cache

from . import scalar as sc
from .gmatrix import (
    GradedMatrix,
    MatrixError,
    check_gybe,
    exp_nilpotent,
    flip_legs,
    from_json_dict,
    gkron,
    inverse,
    kron_parity,
    residual_check,
)
from .report import Check, Report
from .reps import fundamental_rep, lplus_matrix
from .scalar import ONE, ZERO, limit_at_one, substitute


class FixtureError(Exception):
    """A golden fixture that is missing or cannot be parsed; .path names its file."""


@cache
def kr_rmatrix():
    """9x9 R-matrix of the q-deformed algebra on the 3-dim module.

    Nonzero entries: diagonal (q,1,1/q,1,1,1,1/q,1,q) plus
    a = d = omega, b = c = -omega/s, e = omega(1 + 1/q).
    """
    q = sc.q_var()
    qi = sc.q_var(-1)
    w = sc.omega()
    b = -w / sc.s_var()
    entries = {(i, i): v for i, v in enumerate([q, ONE, qi, ONE, ONE, ONE, qi, ONE, q])}
    entries[(1, 3)] = w              # a
    entries[(2, 4)] = b              # b
    entries[(2, 6)] = w * (ONE + qi)  # e
    entries[(4, 6)] = b              # c
    entries[(5, 7)] = w              # d
    p = fundamental_rep().parity
    return GradedMatrix.from_entries(kron_parity(p, p), entries)


def m_matrix():
    """M = I + theta X+ in the fundamental: unipotent with theta at (1,3)."""
    f = fundamental_rep()
    return f.identity + f.image("X+").scale(sc.theta_var())


@cache
def transform_r():
    """G R G^-1, the R-matrix conjugated by G = M (x) M.

    This is the conjugation that reproduces the nine x-entries.
    """
    g = gkron(m_matrix(), m_matrix())
    return g * kr_rmatrix() * inverse(g)


@cache
def contract_r():
    """theta = xi/omega followed by the exact limit s -> 1, entrywise."""
    w = sc.omega()
    binding = {"theta": sc.xi_var() / w}
    contracted = transform_r().map_entries(
        lambda a: limit_at_one(substitute(a, binding))
    )
    return contracted


def f_jordanian(r1=None, r2=None):
    """Even twist matrix exp(h (x) sigma) on a pair of modules."""
    if r1 is None:
        r1 = fundamental_rep()
    if r2 is None:
        r2 = r1
    return exp_nilpotent(gkron(r1.h, r2.image("sigma")))


@cache
def f_super_fund():
    """The odd twist matrix exp(-2 xi (v+ (x) v+)(f1 (x) f1)) on the fundamental pair.

    f1 = 2/(e^sigma + 1) = 1 - (xi/2) X+ there and v+ X+ = 0, so v+ f1 = v+
    and the exponent is -2 xi v+ (x) v+; F21, flip_legs of F by the
    fundamental's parity, is inverse(F).
    """
    v = fundamental_rep().v_plus
    return exp_nilpotent(gkron(v, v).scale(sc.xi_var().scale(-2)))


# fixture name -> builder; this order is that of --matrix and matrix_suite
_BUILDERS = {
    "kr": kr_rmatrix,
    "transformed": transform_r,
    "sjr": contract_r,
    "fj": f_jordanian,
    "fs": f_super_fund,
}
FIXTURE_NAMES = tuple(_BUILDERS)


def named_matrix(name):
    if name not in _BUILDERS:
        raise ValueError("unknown matrix %r (expected one of %s)" % (name, FIXTURE_NAMES))
    return _BUILDERS[name]()


# ---------------------------------------------------------------------------
# golden fixtures


def fixture_dir():
    override = os.environ.get("QOSP_FIXTURES")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(fixture_dir(), "%s.json" % name)


def load_fixture(name):
    path = fixture_path(name)
    try:
        with open(path) as fh:
            return from_json_dict(json.load(fh))
    except (OSError, ValueError, MatrixError, sc.ScalarError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        error = FixtureError("cannot load golden fixture %s: %s" % (path, reason))
        error.path = path
        raise error


def check_golden(name):
    built = named_matrix(name)
    golden = load_fixture(name)
    if built.parity != golden.parity:
        return Check("golden %s" % name, False, "parities differ from fixture")
    return residual_check("golden %s" % name, built - golden, "matches fixture")


# ---------------------------------------------------------------------------
# matrix-level identity checks


def check_triangular(r, v, name):
    """R21 R = 1 exactly for R on V (x) V of parity v; the hallmark of a triangular R-matrix."""
    residual = flip_legs(r, v) * r - GradedMatrix.identity(r.parity)
    return residual_check("triangularity %s" % name, residual, "R21 R = 1")


def check_factorization():
    """R(sj) = F21(s) F21(j) (F(j))^-1 (F(s))^-1, plus F21(s) = F(s)^-1."""
    rep = Report("twist factorization")
    v = fundamental_rep().parity
    f_s = f_super_fund()
    f_j = f_jordanian()
    f_s21 = flip_legs(f_s, v)
    f_j21 = flip_legs(f_j, v)
    f_s_inv = inverse(f_s)
    f_j_inv = inverse(f_j)
    rep.add(residual_check("F21(s) = F(s)^-1", f_s21 - f_s_inv))
    product = f_s21 * f_j21 * f_j_inv * f_s_inv
    r_sj = contract_r()
    rep.add(residual_check("F21(s) F21(j) F(j)^-1 F(s)^-1 = R(sj)", product - r_sj))
    even_part = f_j21 * f_j_inv
    rep.add(Check("even sub-twist alone differs from R(sj)", even_part != r_sj))
    rep.add(check_triangular(even_part, v, "even sub-twist"))
    at_zero = even_part.substitute({"xi": ZERO}) - GradedMatrix.identity(even_part.parity)
    rep.add(residual_check("even sub-twist at xi=0 is the identity", at_zero))
    return rep


def check_new_entries_proportional():
    """Every transform-only entry is omega*theta times a scalar regular at s = 1.

    omega is a unit of the field, so divisibility needs only a theta
    factor in every term (the entry vanishes at theta = 0).  The
    contraction theta = xi/omega also needs each quotient free of a pole
    at s = 1; denominators are free of theta, so that is a pole of v/omega.
    """
    entries = [v for _, _, v in (transform_r() - kr_rmatrix()).entries()]
    name = "new entries proportional to omega*theta"
    if not all(substitute(v, {"theta": ZERO}).is_zero() for v in entries):
        return Check(name, False, "inexact division")
    w_inv = sc.inv(sc.omega())
    if any((v * w_inv).den.eval_s_one().is_zero() for v in entries):
        return Check(name, False, "quotient has a pole at s = 1")
    return Check(name, True, "")


def check_lplus_slices():
    """The contracted R-matrix is the L+ generator matrix of the fundamental."""
    residual = lplus_matrix(fundamental_rep()) - contract_r()
    return residual_check("L+ block pattern ((E^-1,V,H),(0,1,W),(0,0,E))", residual)


def matrix_suite():
    rep = Report("matrix identities")
    for name in FIXTURE_NAMES:
        rep.add(check_golden(name))
    rep.add(check_new_entries_proportional())
    rep.add(check_lplus_slices())
    return rep


def triangular_suite():
    """The contracted R-matrix is triangular; the q-deformed one is not."""
    v = fundamental_rep().parity
    sjr = check_triangular(contract_r(), v, "sjr")
    kr = kr_rmatrix()
    kr_triangular = (flip_legs(kr, v) * kr).is_identity()
    not_kr = Check("q-deformed R-matrix is not triangular", not kr_triangular, "")
    return Report("triangularity", [sjr, not_kr])


def ybe_suite():
    rep = Report("graded Yang-Baxter")
    v = fundamental_rep().parity
    rep.add(check_gybe(kr_rmatrix(), v, "gybe kr (symbolic in s)"))
    rep.add(check_gybe(transform_r(), v, "gybe transformed (symbolic in s, theta)"))
    rep.add(check_gybe(contract_r(), v, "gybe sjr (symbolic in xi)"))
    return rep

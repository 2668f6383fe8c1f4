"""Acceptance criteria, one test per criterion, one printed line each.

Every equality is exact (zero tolerance) in rational arithmetic; each
criterion also carries the runtime budget it must meet.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from koszul_rules import gflip
from qosp import scalar as sc
from qosp.coproducts import (
    CLASSICAL,
    JORDANIAN,
    Q_DEFORMED,
    SUPER_JORDANIAN,
    check_coassociativity,
    check_cocycle_jordanian,
    check_homomorphism,
    check_r_intertwines,
    frt_check,
)
from qosp.gmatrix import (
    GradedMatrix,
    check_gybe,
    flip_legs,
    from_json_dict,
    gkron,
    inverse,
    kron_parity,
    to_json_dict,
)
from qosp.matrices import (
    check_factorization,
    check_golden,
    check_triangular,
    contract_r,
    f_jordanian,
    f_super_fund,
    kr_rmatrix,
    transform_r,
)
from qosp.phi import build_f_super, check_intertwining_s, f1_table, solve_phi
from qosp.reps import check_lt_relations, fundamental_rep, irrep
from qosp.scalar import ONE, ZERO, Scalar, rational
from x_entries import X_POSITIONS, x_entries


def _criterion(name, passed, t0, budget):
    elapsed = time.time() - t0
    print("criterion %-38s %s  (%.2fs, budget %ds)" % (name, "PASS" if passed else "FAIL", elapsed, budget))
    assert passed, name
    assert elapsed < budget, "%s exceeded %ds budget: %.2fs" % (name, budget, elapsed)


def test_criterion_1_golden_reconstruction():
    t0 = time.time()
    ok = all(check_golden(n).passed for n in ("kr", "transformed", "sjr", "fj", "fs"))
    tr = transform_r()
    explicit = x_entries()
    for name, (i, j) in X_POSITIONS.items():
        ok = ok and tr[i, j] == explicit[name]
    _criterion("1 golden reconstruction", ok, t0, 1)


def test_criterion_2_graded_ybe():
    t0 = time.time()
    v = fundamental_rep().parity
    ok = (
        check_gybe(kr_rmatrix(), v, "gybe kr").passed
        and check_gybe(transform_r(), v, "gybe transformed").passed
        and check_gybe(contract_r(), v, "gybe sjr").passed
    )
    _criterion("2 graded YBE (symbolic)", ok, t0, 30)


def test_criterion_3_triangularity():
    t0 = time.time()
    v = fundamental_rep().parity
    sjr, kr = check_triangular(contract_r(), v, "sjr"), check_triangular(kr_rmatrix(), v, "kr")
    ok = sjr.passed and not kr.passed
    _criterion("3 triangularity", ok, t0, 1)


def test_criterion_4_factorization():
    t0 = time.time()
    rep = check_factorization()
    ok = rep.passed
    _criterion("4 twist factorization", ok, t0, 1)


def test_criterion_5_representations():
    t0 = time.time()
    ok = True
    for spin in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        r = irrep(spin)  # constructor re-verifies every invariant
        ok = ok and r.dim == int(4 * spin + 1)
    fund = fundamental_rep()
    ok = ok and fund.image("X+") == GradedMatrix.from_entries(fund.parity, {(0, 2): ONE})
    _criterion("5 representations", ok, t0, 1)


def test_criterion_6_frt():
    t0 = time.time()
    ok = True
    for spin in (Fraction(1, 2), Fraction(1)):
        r = irrep(spin)
        ok = ok and check_lt_relations(r).passed
        ok = ok and frt_check(r).passed
    _criterion("6 FRT relations", ok, t0, 60)


def test_criterion_7_cocycle_coassociativity():
    t0 = time.time()
    fund = fundamental_rep()
    spin1 = irrep(1)
    ok = check_cocycle_jordanian(fund, fund, fund).passed
    ok = ok and check_cocycle_jordanian(fund, fund, spin1).passed
    ok = ok and all(c.passed for c in check_coassociativity(JORDANIAN, fund, fund, fund))
    _criterion("7 cocycle and coassociativity", ok, t0, 60)


def test_criterion_8_coproduct_homomorphisms():
    t0 = time.time()
    fund = fundamental_rep()
    spin1 = irrep(1)
    ok = check_homomorphism(CLASSICAL, fund, fund).passed
    ok = ok and check_homomorphism(CLASSICAL, fund, spin1).passed
    ok = ok and check_homomorphism(JORDANIAN, fund, fund).passed
    ok = ok and check_homomorphism(JORDANIAN, fund, spin1).passed
    ok = ok and check_homomorphism(Q_DEFORMED, fund, fund).passed
    ok = ok and check_r_intertwines(kr_rmatrix(), Q_DEFORMED, fund).passed
    ok = ok and check_r_intertwines(contract_r(), SUPER_JORDANIAN, fund).passed
    _criterion("8 coproduct homomorphisms", ok, t0, 30)


def test_criterion_9_super_twist():
    t0 = time.time()
    fund = fundamental_rep()
    spin1 = irrep(1)
    table1 = f1_table()
    ok = check_intertwining_s(table1, fund, fund, 8).passed
    ok = ok and build_f_super(table1, fund, fund) == f_super_fund()
    # order 1 recovers the leading expansion of the closed form
    table_a, rep_a = solve_phi(1, [(fund, fund)], include_f1=False)
    ok = ok and rep_a.passed and table_a.get((0, 0), 0) == Fraction(1)
    table_b, rep_b = solve_phi(2, [(spin1, spin1)], include_f1=False)
    ok = ok and rep_b.passed and table_b.get((0, 1), 0) == Fraction(-1, 2)
    # order 2 on the stated pairs: consistent correction with zero residual
    table2, rep2 = solve_phi(2, [(spin1, fund), (spin1, spin1)])
    ok = ok and rep2.passed
    ok = ok and (table2.get((1, 1), 0) - Fraction(1, 4)) == Fraction(-1, 12)
    _criterion("9 super twist series", ok, t0, 120)


def test_criterion_10_property_meta_suites():
    t0 = time.time()
    rng = random.Random(424242)
    fund_parity = (0, 1, 0)

    def rand_matrix(parity, homogeneous=None, density=0.5):
        entries = {}
        n = len(parity)
        for i in range(n):
            for j in range(n):
                if homogeneous is not None and (parity[i] + parity[j]) % 2 != homogeneous:
                    continue
                if rng.random() < density:
                    entries[(i, j)] = rational(Fraction(rng.randint(-4, 4)))
        return GradedMatrix.from_entries(parity, entries)

    ok = True
    # gkron associativity
    for _ in range(200):
        p1 = tuple(rng.randint(0, 1) for _ in range(2))
        p2 = tuple(rng.randint(0, 1) for _ in range(2))
        a, b, c = rand_matrix(p1), rand_matrix(p2), rand_matrix(p1)
        ok = ok and gkron(gkron(a, b), c) == gkron(a, gkron(b, c))
    # functoriality
    for _ in range(200):
        p1 = tuple(rng.randint(0, 1) for _ in range(2))
        p2 = tuple(rng.randint(0, 1) for _ in range(2))
        pb, pc = rng.randint(0, 1), rng.randint(0, 1)
        a = rand_matrix(p1)
        c = rand_matrix(p1, homogeneous=pc)
        b = rand_matrix(p2, homogeneous=pb)
        d = rand_matrix(p2)
        lhs = gkron(a, b) * gkron(c, d)
        rhs = gkron(a * c, b * d).scale((-1) ** (pb * pc))
        ok = ok and (lhs - rhs).is_zero()
    # flip involution, and the relabel is the product with the explicit flip
    for _ in range(200):
        parity = tuple(rng.randint(0, 1) for _ in range(rng.randint(2, 4)))
        p = gflip(parity)
        ok = ok and (p * p).is_identity()
        m = rand_matrix(kron_parity(parity, parity), density=0.2)
        ok = ok and flip_legs(m, parity) == p * m * p
        ok = ok and flip_legs(flip_legs(m, parity), parity) == m
    # scalar field laws
    from test_scalar import _random_scalar

    for _ in range(200):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        ok = ok and (a + b) * c == a * c + b * c
        inv_cand = _random_scalar(rng, invertible=True)
        if not inv_cand.is_zero():
            ok = ok and inv_cand * sc.inv(inv_cand) == ONE
    # limit multiplicativity
    count = 0
    while count < 200:
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        if not (a.theta_free() and b.theta_free()):
            continue
        try:
            la, lb = sc.limit_at_one(a), sc.limit_at_one(b)
        except sc.ScalarError:
            continue
        ok = ok and sc.limit_at_one(a * b) == la * lb and sc.limit_at_one(a + b) == la + lb
        count += 1
    # JSON round trip
    for _ in range(200):
        parity = tuple(rng.randint(0, 1) for _ in range(3))
        m = rand_matrix(parity)
        ok = ok and from_json_dict(to_json_dict(m)) == m
    _criterion("10 property meta-suites", ok, t0, 30)

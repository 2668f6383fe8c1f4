"""Hopf-level checks: homomorphisms, twists, intertwining, cocycle."""

import random
import re
from fractions import Fraction

import pytest

from koszul_rules import as_word, formal_delta_j_word, gflip, gkron_rule
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
    check_twist_produces,
    evaluate_terms,
    f_jordanian,
)
from qosp.gmatrix import GradedMatrix, flip_legs, gkron, inverse, kron_parity
from qosp.matrices import contract_r, f_super_fund, frt_check, kr_rmatrix
from qosp.phi import check_intertwining_s, f1_table
from qosp.reps import (
    Representation,
    RepresentationError,
    check_lt_relations,
    fundamental_rep,
    irrep,
)
from qosp.scalar import ONE, ZERO, rational
from relation_oracle import osp_residuals, q_anticommutator_residual


@pytest.fixture(scope="module")
def fund():
    return fundamental_rep()


@pytest.fixture(scope="module")
def spin1():
    return irrep(1)


def test_classical_homomorphism(fund, spin1):
    assert check_homomorphism(CLASSICAL, fund, fund).passed
    assert check_homomorphism(CLASSICAL, fund, spin1).passed


def test_jordanian_homomorphism(fund, spin1):
    assert check_homomorphism(JORDANIAN, fund, fund).passed
    assert check_homomorphism(JORDANIAN, fund, spin1).passed


def test_q_deformed_homomorphism(fund):
    assert check_homomorphism(Q_DEFORMED, fund, fund).passed


def test_q_deformed_homomorphism_fails_on_a_perturbed_v_minus_rule(monkeypatch, fund):
    """Doubling the v- (x) s^h term keeps [h, v-] = -v- (it is linear in v-)
    and breaks the q-anticommutator, which reports the residual's entries."""
    (coeff, left, right), second = Q_DEFORMED.rules["v-"]
    monkeypatch.setitem(Q_DEFORMED.rules, "v-", [(2 * coeff, left, right), second])
    rep = check_homomorphism(Q_DEFORMED, fund, fund)
    assert [(c.name, c.passed) for c in rep.checks] == [
        ("[h, v+] = v+", True),
        ("[h, v-] = -v-", True),
        ("{v+, v-} = -(q^h - q^-h)/(4 omega)", False),
    ]
    assert rep.checks[2].data["nonzero"]


def test_super_jordanian_borel_homomorphism(fund):
    """SUPER_JORDANIAN has no v- rule: its module has no v-, its report one relation."""
    assert SUPER_JORDANIAN.module(fund, fund).v_minus is None
    rep = check_homomorphism(SUPER_JORDANIAN, fund, fund)
    assert [(c.name, c.passed) for c in rep.checks] == [("[h, v+] = v+", True)]


def test_module_without_v_minus_names_the_missing_image(fund):
    module = SUPER_JORDANIAN.module(fund, fund)
    message = re.escape("module (1/2, 1/2) has no image of v-")
    with pytest.raises(RepresentationError, match=message):
        module.image(("h", "v-"))
    with pytest.raises(RepresentationError, match=message):
        module.verify()


@pytest.mark.parametrize("doubled", [False, True], ids=["rules", "doubled_v_minus"])
def test_q_relations_match_the_written_out_residuals(monkeypatch, fund, spin1, doubled):
    """Q_DEFORMED.relations, entry for entry, against the hand-written residuals.

    The spin-1 irrep and the module with the v- (x) s^h term doubled
    break the q-anticommutator, so a dropped or mistyped term shows.
    """
    if doubled:
        (coeff, left, right), second = Q_DEFORMED.rules["v-"]
        monkeypatch.setitem(Q_DEFORMED.rules, "v-", [(2 * coeff, left, right), second])
    modules = [Q_DEFORMED.module(fund, fund)] + ([] if doubled else [spin1])
    for m in modules:
        q_name = "{v+, v-} = -(q^h - q^-h)/(4 omega)"
        written = osp_residuals(m)[:2] + [(q_name, q_anticommutator_residual(m))]
        assert [n for n, _ in Q_DEFORMED.relations] == [n for n, _ in written]
        for (n, terms), (_, residual) in zip(Q_DEFORMED.relations, written):
            assert m.word_sum(terms) == residual, n
    assert not q_anticommutator_residual(modules[-1]).is_zero()


def test_jordanian_vminus_rule_details(fund):
    # the deformed v- rule carries the extra xi h (x) v+ e^{-2 sigma} term
    img = JORDANIAN.module(fund, fund).image("v-")
    classical = evaluate_terms(CLASSICAL.rules["v-"], fund, fund)
    diff = img - classical
    assert not diff.is_zero()
    assert diff.substitute({"xi": ZERO}).is_zero()


def test_even_twist_produces_deformed_coproduct(fund, spin1):
    for r in (fund, spin1):
        checks = check_twist_produces(f_jordanian(fund, r), JORDANIAN.rules, fund, r)
        assert all(c.passed for c in checks)


def test_composed_twist_produces_super_coproduct(fund):
    k = f_super_fund() * f_jordanian(fund, fund)
    checks = check_twist_produces(k, SUPER_JORDANIAN.rules, fund, fund)
    assert [c.name for c in checks] == ["Delta(h) matches closed form", "Delta(v+) matches closed form"]
    assert all(c.passed for c in checks)


def test_composed_twist_row_rule_fails_on_h(fund):
    """The row Koszul rule cannot match the twisted coproduct of h.

    With gkron built on the row rule, the 4 xi (v E^-1) (x) (v E^-2)
    term of the twisted coproduct of h flips sign, so the conjugation
    check must fail; this pins the column rule.
    """
    k = f_super_fund() * f_jordanian(fund, fund)
    k_inv = inverse(k)
    dh = k * evaluate_terms(CLASSICAL.rules["h"], fund, fund) * k_inv
    xi = sc.xi_var()
    e_inv = fund.image("E^-1")
    e_inv2 = fund.image("E^-2")
    for conv, expect_match in (("first_col", True), ("first_row", False)):
        rule = (
            gkron_rule(fund.h, e_inv2, conv)
            + gkron_rule(fund.identity, fund.h, conv)
            + gkron_rule(fund.v_plus * e_inv, fund.v_plus * e_inv2, conv)
            .scale(4)
            .map_entries(lambda a: a * xi)
        )
        assert (dh == rule) is expect_match, conv


def test_r_intertwines_q_deformed(fund):
    assert check_r_intertwines(kr_rmatrix(), Q_DEFORMED, fund).passed


def test_r_intertwines_super_jordanian(fund):
    assert check_r_intertwines(contract_r(), SUPER_JORDANIAN, fund).passed


def test_identity_intertwines_classical(fund):
    ident = GradedMatrix.identity(kron_parity(fund.parity, fund.parity))
    assert check_r_intertwines(ident, CLASSICAL, fund).passed


def test_opposite_coproduct_consistency(fund):
    """The flipped primitive coproduct is the coproduct itself.

    P gkron(x, 1) P = gkron(1, x) and vice versa (the Koszul signs on a
    lone identity leg vanish), so P Delta P = Delta on primitives; the
    general leg-swap law P gkron(A, B) P = +-gkron(B, A) is covered by
    the flip-intertwining test.
    """
    v, p = fund.parity, gflip(fund.parity)
    for gen in ("h", "v+", "v-"):
        img = evaluate_terms(CLASSICAL.rules[gen], fund, fund)
        assert flip_legs(img, v) == (p * img * p) == img
        x = fund.image(gen)
        left = gkron(x, fund.identity)
        assert flip_legs(left, v) == p * left * p == gkron(fund.identity, x)


def test_conjugation_preserves_relations_meta(fund, spin1):
    """Relations survive conjugation by any invertible element."""
    rng = random.Random(23)
    xi = sc.xi_var()
    for r2 in (fund, spin1):
        parity = kron_parity(fund.parity, r2.parity)
        n = len(parity)
        entries = {(i, i): ONE for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    entries[(i, j)] = xi.scale(rng.randint(-2, 2))
        f = GradedMatrix.from_entries(parity, entries)
        f_inv = inverse(f)
        module = CLASSICAL.module(fund, r2)
        dh, dvp, dvm = (f * module.image(g) * f_inv for g in ("h", "v+", "v-"))
        assert (dh * dvp - dvp * dh - dvp).is_zero()
        assert (dh * dvm - dvm * dh + dvm).is_zero()
        assert (dvp * dvm + dvm * dvp + dh.scale(Fraction(1, 4))).is_zero()


def test_cocycle_even_twist(fund, spin1):
    assert check_cocycle_jordanian(fund, fund, fund).passed
    assert check_cocycle_jordanian(fund, fund, spin1).passed


def test_cocycle_identity_twist_trivial(fund):
    # F = 1 satisfies the twist equation trivially: both sides reduce to
    # the classical coproduct image of sigma = 0 exponentiated
    zero_sigma = fund.image("sigma").substitute({"xi": ZERO})
    assert zero_sigma.is_zero()


def test_coassociativity(fund):
    assert all(c.passed for c in check_coassociativity(JORDANIAN, fund, fund, fund))


@pytest.mark.parametrize("spins", ["1/2,1/2,1/2", "1/2,1,1/2"])
@pytest.mark.parametrize(
    "cp", [CLASSICAL, Q_DEFORMED, JORDANIAN, SUPER_JORDANIAN], ids=lambda cp: cp.name
)
def test_every_coproduct_map_is_coassociative(cp, spins):
    """SUPER_JORDANIAN has rules for h and v+ only; every other map for all three."""
    r1, r2, r3 = (irrep(Fraction(s)) for s in spins.split(","))
    checks = check_coassociativity(cp, r1, r2, r3)
    gens = ["h", "v+"] if cp is SUPER_JORDANIAN else ["h", "v+", "v-"]
    assert [(c.name, c.passed) for c in checks] == [("generator %s" % g, True) for g in gens]


def test_coassociativity_fails_when_e_is_not_grouplike(monkeypatch, fund):
    """With Delta(v+) = v+ (x) E^2 + 1 (x) v+ the coproduct of E is no longer
    E (x) E, and coassociativity fails on every generator: the check derives
    the coproduct of E^k from that of v+ instead of assuming it."""
    v_plus_e2 = [(1, "v+", "E^2"), JORDANIAN.rules["v+"][1]]
    monkeypatch.setitem(JORDANIAN.rules, "v+", v_plus_e2)
    checks = check_coassociativity(JORDANIAN, fund, fund, fund)
    assert [c.passed for c in checks] == [False, False, False]


def test_s_power_h_needs_a_diagonal_h(fund, spin1):
    """q**(Delta(h)/2) exists for the diagonal primitive Delta(h), not for Delta_j(h)."""
    module = CLASSICAL.module(fund, spin1)
    qh = module.image("s^h")
    assert module.h * qh == qh * module.h
    assert qh == gkron(fund.image("s^h"), spin1.image("s^h"))
    with pytest.raises(RepresentationError, match="s\\*\\*h needs a diagonal h"):
        JORDANIAN.module(fund, fund).image("s^h")


@pytest.mark.parametrize(
    "cp, second", [(CLASSICAL, "spin1"), (JORDANIAN, "fund")], ids=["classical", "jordanian"]
)
def test_lt_relations_on_tensor_modules(request, fund, cp, second):
    r2 = request.getfixturevalue(second)
    rep = check_lt_relations(cp.module(fund, r2))
    assert rep.name == "lt-relations spin (1/2, %s)" % r2.spin
    assert len(rep.checks) == 10 and rep.passed


@pytest.mark.parametrize("left, right", [("1/2", "1/2"), ("1/2", "1"), ("1", "3/2")])
def test_jordanian_module_has_grouplike_e(left, right):
    """In JORDANIAN.module(r1, r2), E^k = exp(k sigma) is E^k (x) E^k."""
    r1, r2 = irrep(Fraction(left)), irrep(Fraction(right))
    module = JORDANIAN.module(r1, r2)
    for k in (1, -1, -2):
        atom = "E^%d" % k
        assert module.image((atom,)) == gkron(r1.image(atom), r2.image(atom)), k


@pytest.mark.parametrize("second", ["fund", "spin1"])
def test_word_coproduct_matches_formal_expansion(request, fund, second):
    """The image of a word in JORDANIAN.module equals its formal graded expansion.

    Every word of the JORDANIAN table is covered; the words with two odd
    atoms are where the Koszul sign (-1)**(p(b)p(c)) is met.
    """
    r2 = request.getfixturevalue(second)
    words = {as_word(w) for terms in JORDANIAN.rules.values() for _, *pair in terms for w in pair}
    words |= {("v+", "v-"), ("v-", "v+", "h"), ("v+", "E^1", "v+"), ("h", "v-", "E^-2", "v-")}
    module = JORDANIAN.module(fund, r2)
    for word in sorted(words):
        formal = evaluate_terms(formal_delta_j_word(word), fund, r2)
        assert module.image(word) == formal, word


def test_coassociativity_reads_the_coproduct_table(monkeypatch, fund):
    """With the JORDANIAN rules replaced by the primitive ones, both the
    outer sum and the inner coproducts must see the primitive coproduct,
    which is coassociative."""
    for g in JORDANIAN.rules:
        monkeypatch.setitem(JORDANIAN.rules, g, CLASSICAL.rules[g])
    checks = check_coassociativity(JORDANIAN, fund, fund, fund)
    assert [c.passed for c in checks] == [True, True, True]


def test_unknown_generator_atom_rejected(fund):
    from qosp.reps import RepresentationError

    with pytest.raises(RepresentationError):
        fund.image("w-")


def test_homomorphism_failure_names_its_entries(fund):
    """A stray even entry (1, 3) in v+: each check lists its residual's nonzeros."""
    stray = GradedMatrix.from_entries(fund.parity, {(0, 2): rational(3)})
    bad = Representation(fund.spin, fund.h, fund.v_plus + stray, fund.v_minus, fund.parity)
    dh, dvp, dvm = map(CLASSICAL.module(bad, fund).image, ("h", "v+", "v-"))
    residuals = {
        "[h, v+] = v+": dh * dvp - dvp * dh - dvp,
        "[h, v-] = -v-": dh * dvm - dvm * dh + dvm,
        "{v+, v-} = -h/4": dvp * dvm + dvm * dvp + dh.scale(Fraction(1, 4)),
    }
    rep = check_homomorphism(CLASSICAL, bad, fund)
    assert [c.name for c in rep.checks] == list(residuals)
    assert [c.passed for c in rep.checks] == [False, True, False]
    for check in rep.checks:
        residual = residuals[check.name]
        explicit = [(i + 1, j + 1, sc.format_scalar(x)) for i, j, x in residual.entries()]
        assert check.data == {"nonzero": explicit[:10]}
        if explicit:
            assert check.detail == "residual has %d nonzero entries" % len(explicit)


def test_tensor_module_spins_print_as_fractions(fund):
    """Check and report names give a tensor module's spin pair as (1/2, 1/2)."""
    module = CLASSICAL.module(fund, fund)
    names = [
        frt_check(module).name,
        check_homomorphism(CLASSICAL, module, fund).name,
        check_cocycle_jordanian(module, fund, fund).name,
        check_intertwining_s(f1_table(), module, fund).name,
    ]
    assert names == [
        "FRT relation in spin (1/2, 1/2) (6561 scalar identities)",
        "homomorphism CLASSICAL on ((1/2, 1/2), 1/2)",
        "cocycle even twist on ((1/2, 1/2), 1/2, 1/2)",
        "odd-twist intertwining ((1/2, 1/2), 1/2), exact",
    ]

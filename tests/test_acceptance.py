"""Acceptance suite: every criterion exact (tolerance zero), one printed
pass line per criterion.  Shared pipeline runs come from conftest fixtures."""

import math
import random
from fractions import Fraction

import numpy as np

import per_entry
from modkit._kernel import euler_phi
from modkit.cyclotomic import CycNum, is_root_of_unity, zeta
from modkit.datum import reduce_slightly_degenerate
from modkit.families import (TaftLabel, pointed_cyclic, sl2_q16_counterexample,
                             taft_double, taft_epsilon_action, taft_fusion_tensor,
                             taft_J_indices, taft_label_index,
                             taft_normalized_S, taft_normalizer)
from modkit.fusion import quotient_constants
from modkit.checks import check_axioms
from modkit.pipeline import emit_zmodular, verify_raw
from conftest import POINTED_GRID, TAFT_RANGE
from per_entry import rank


def ok(n, text):
    print(f"\nacceptance criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------

def test_criterion_1_taft_z_modularity(taft_verified):
    total = 0.0
    for d in TAFT_RANGE:
        timed = taft_verified[d]
        res = timed.result
        total += timed.seconds
        assert res.passed, f"d={d} failing checks: {[c.name for c in res.report.failures()]}"
        assert res.classification == "Z-modular", f"d={d} classified {res.classification}"
        if d >= 3:
            assert res.tensor.min() < 0, f"d={d} has no negative quotient coefficient"
    assert total < 30.0, f"verification of d=2..8 took {total:.1f}s (budget 30s)"
    ok(1, f"taft d=2..8 all verify as Z-modular, negatives for d>=3, {total:.1f}s total")


def test_criterion_2_oracle_equivalence(taft_verified):
    for d in TAFT_RANGE:
        res = taft_verified[d].result
        sldeg = res.sldeg
        k = d * (d - 1) // 2
        assert res.tensor.shape == (k, k, k)
        oracle = taft_fusion_tensor(d)
        want, _ = quotient_constants(oracle, sldeg.epsilon, reps=sldeg.reps)
        assert np.array_equal(res.tensor, want), f"oracle mismatch at d={d}"
        assert res.report["oracle_equivalence"].status == "pass"
    ok(2, "signed Verlinde equals the fusion-rule quotient for d=2..8, all entries")


def test_criterion_3_closed_form_normalized_matrix():
    for d in TAFT_RANGE:
        sld = reduce_slightly_degenerate(taft_double(d), reps=taft_J_indices(d))
        em = emit_zmodular(sld)
        assert em.normalizer == taft_normalizer(d)
        assert em.datum is not None
        assert em.datum.s_matrix == taft_normalized_S(d), f"closed form mismatch at d={d}"
        assert check_axioms(em.datum).passed, f"axioms fail on the emitted datum at d={d}"
    ok(3, "emitted normalized S equals the closed form for d=2..8, axioms pass")


def test_criterion_4_rank_halving(taft_verified):
    for d in range(3, 9):
        raw = taft_double(d)
        r = rank(raw.s_matrix)
        assert r == d * (d - 1) // 2, f"rank {r} at d={d}"
        # the pipeline reads rank_half off the reduction; exact elimination is the reference
        rank_half = taft_verified[d].result.report["rank_half"]
        assert rank_half.status == "pass"
        assert rank_half.detail == f"rank {r} of size {raw.size}", f"d={d}"
    ok(4, "full S-matrix rank is half its size for d=3..8, as the reduction certifies")


def test_taft_d11_end_to_end():
    d = 11
    res = verify_raw(taft_double(d), fusion_oracle=taft_fusion_tensor(d), reps=taft_J_indices(d))
    assert res.classification == "Z-modular"
    assert res.report["oracle_equivalence"].status == "pass"
    em = emit_zmodular(res.sldeg)   # the normalizer comes from sqrt_in_field
    assert em.datum is not None and em.datum.s_matrix == taft_normalized_S(d)
    assert check_axioms(em.datum).passed
    ok("d=11", "taft d=11 verifies Z-modular, matches the oracle, emits the closed form")


def test_criterion_5_pointed_family(pointed_verified):
    for (n, a, k0) in POINTED_GRID:
        res = pointed_verified[(n, a, k0)]
        tag = f"(n={n},a={a},k0={k0})"
        assert res.passed, f"{tag} failing: {[c.name for c in res.report.failures()]}"
        assert res.classification == "N-modular", tag
        for k in range(n):
            for l in range(n):
                want = np.zeros(n, dtype=np.int64)
                want[(k + l) % n] = 1
                assert np.array_equal(res.tensor[k, l], want), tag
        assert res.world.labels[res.world.unit_bar] == f"d{(-k0) % n}", tag
    deg = verify_raw(pointed_cyclic(9, 3, 0))
    assert deg.classification == "degenerate"
    assert len(pointed_cyclic(9, 3, 0).labels) == 9
    from modkit.datum import detect_symmetric_center
    assert len(detect_symmetric_center(pointed_cyclic(9, 3, 0))) > 1
    ok(5, "pointed grid is N-modular with the group law and the expected unit_bar; "
          "non-primitive braiding reports degenerate")


def test_criterion_6_counterexample_fails_st_cube():
    _, bold = sl2_q16_counterexample()
    res = verify_raw(bold)
    assert res.exit_code == 1
    c = res.report["sl2_st_cubed"]
    assert c.status == "fail"
    assert c.witness is not None and "at" in c.witness
    assert c.witness["lhs"] != c.witness["rhs"]
    ok(6, "q16 restriction fails (S T)^3 = tau- S^2 with an exact witness, exit code 1")


def test_criterion_7_structural_identities(taft_verified, pointed_verified):
    required = ("sl2_s_squared_signed_perm", "gauss_product", "twist_unit_bar",
                "twist_dual_dim", "balancing", "vafa_twists", "vafa_anomaly",
                "sl2_st_cubed", "sl2_s_fourth", "sl2_st_inv_cubed")
    instances = [(f"taft d={d}", taft_verified[d].result) for d in TAFT_RANGE]
    instances += [(f"pointed {key}", res) for key, res in pointed_verified.items()]
    for tag, res in instances:
        for name in required:
            assert res.report[name].status == "pass", f"{tag}: {name}"
    ok(7, f"all structural identities hold on {len(instances)} generated instances")


def test_criterion_8_absolute_value_property():
    for d in (3, 4, 5):
        oracle = taft_fusion_tensor(d)
        labs = [TaftLabel(l, p) for l in range(1, d) for p in range(d)]
        eps = labs.index(TaftLabel(d - 1, 1))
        act = [taft_label_index(d, taft_epsilon_action(d, x)) for x in labs]
        t = oracle.table
        # hypothesis: no product lands on both a label and its fermion twin
        assert np.all(t * t[:, :, act] == 0), f"vanishing-product hypothesis fails at d={d}"
        reps = taft_J_indices(d)
        q_minus, _ = quotient_constants(oracle, eps, reps=reps)
        q_plus = t[np.ix_(reps, reps, reps)] + t[np.ix_(reps, reps, [act[z] for z in reps])]
        assert np.array_equal(np.abs(q_minus), q_plus), f"|sign -1| != sign +1 at d={d}"
    ok(8, "N * N^(eps shift) = 0 and |sign-1 constants| = sign+1 constants for d=3,4,5")


def test_criterion_9_choice_independence(taft_verified):
    rng = random.Random(20240811)
    for d in (3, 4, 5):
        base = taft_verified[d].result
        raw = taft_double(d)
        act = base.sldeg.eps_action
        # random representative per orbit, unit forced in
        reps, seen = [], set()
        for i in range(raw.size):
            if i in seen:
                continue
            pick = raw.unit if raw.unit in (i, act[i]) else rng.choice((i, act[i]))
            reps.append(pick)
            seen.add(i)
            seen.add(act[i])
        alt = verify_raw(raw, fusion_oracle=taft_fusion_tensor(d), reps=reps)
        base_statuses = {c.name: c.status for c in base.report.checks}
        alt_statuses = {c.name: c.status for c in alt.report.checks}
        assert base_statuses == alt_statuses, f"outcome changed under random reps at d={d}"
        assert alt.world.tau_plus == base.world.tau_plus, f"stau+ changed at d={d}"
        assert alt.world.tau_minus == base.world.tau_minus, f"stau- changed at d={d}"
        assert alt.world.global_dim == base.world.global_dim, f"sdim changed at d={d}"
        assert alt.classification == base.classification
    ok(9, "randomized representatives give identical outcomes, stau+-, sdim for d=3,4,5")


def test_criterion_10_cyclotomic_property_suite():
    rng = random.Random(971)
    conductors = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12)
    cases = 0

    def rand_cyc(n, span=5):
        return per_entry.from_coeffs(n, [Fraction(rng.randint(-span, span), rng.randint(1, 4))
                                         for _ in range(euler_phi(n))])

    for _ in range(1300):
        n = rng.choice(conductors)
        a, b, c = rand_cyc(n), rand_cyc(n), rand_cyc(n)
        assert (a + b) + c == a + (b + c)
        cases += 1
        assert (a * b) * c == a * (b * c)
        cases += 1
        assert a * (b + c) == a * b + a * c
        cases += 1
        if not a.is_zero():
            assert a * a.inv() == 1
            cases += 1
        assert a.conj().conj() == a
        cases += 1
        units = [j for j in range(1, n + 1) if math.gcd(j, n) == 1]
        j, jp = rng.choice(units), rng.choice(units)
        assert a.galois(j).galois(jp) == a.galois((j * jp) % n)
        cases += 1
        m = n * rng.choice((2, 3, 4))
        lifted = a.lift(m)
        assert lifted == a and lifted.minimal() == a
        cases += 1
        k = rng.randint(0, 2 * n)
        x = zeta(n, k) if rng.random() < 0.5 else -zeta(n, k)
        w = is_root_of_unity(x)
        assert w is not None and x ** w.order == 1
        cases += 1
    assert cases >= 10_000
    ok(10, f"{cases} randomized exact-arithmetic property cases, zero failures")

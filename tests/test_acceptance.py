"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.

All numeric comparisons are exact (Fraction arithmetic, mutual LP entailment
for solution-set equality); the only tolerances here are wall-clock limits.
"""

import random
import time
from contextlib import contextmanager

from almterm import (
    ALM_RECURRENT,
    NOT_ALM_RECURRENT,
    SOUND_YES,
    UNKNOWN,
    LevelMapping,
    N,
    Q,
    QPLUS,
    R,
    RPLUS,
    assemble,
    binarize,
    check_length_bound,
    coeff_table,
    decide,
    equivalent_systems,
    fm_project,
    minimize,
    parse_program,
    run_ground,
    verify,
)
from helpers import (
    load,
    random_binary_program_text,
    random_flat_program_text,
    synthetic_family_text,
)
from linear import LinearExpr, equal, geq, normalize, var
from multiplier_systems import build_rule_systems
from test_lp import explicit_dual, make_bounded_lp


@contextmanager
def criterion(number: int, limit_seconds: float, label: str):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= limit_seconds else "PASS"
        print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.2f}s < {limit_seconds:g}s): {label}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_01_golden_certificate():
    with criterion(1, 1.0, "golden program certified; projection matches the known rows"):
        program = parse_program(load("example72.clp"))
        verdict = decide(program, Q)
        assert verdict.kind == ALM_RECURRENT
        mu0, mu1 = verdict.alm.coeff_ids["p"]
        expected = normalize(
            [geq(var(mu0) + var(mu1).scale(73), 0), geq(-var(mu1), 1)]
        )
        assert equivalent_systems(verdict.projection, expected)
        assert verify(program, LevelMapping({"p": (73, -1)}), Q).passed


def test_criterion_02_dual_system_shape():
    with criterion(2, 1.0, "per-rule multiplier systems equal the reference form"):
        program = parse_program(load("example72.clp"))
        pool = program.pool.clone()
        coeffs = coeff_table(program, pool)
        mu0, mu1 = coeffs["p"]
        decrease, nonneg = build_rule_systems(program.rules[2], Q, pool, coeffs)

        def display(multipliers, tag, balance_rhs, bound):
            m1, m2, m3, m4, m5 = map(var, multipliers)
            combined = pool.fresh(tag)
            rows = [
                equal(var(combined), m1 - m2 - m3.scale(72) + m4 - m5),
                geq(var(combined), bound),
                equal(m1 - m2, balance_rhs[0]),
                equal(-m3 - m4 + m5, balance_rhs[1]),
                equal(m4 - m5, balance_rhs[2]),
            ]
            rows += [geq(var(v), 0) for v in multipliers]
            return fm_project(normalize(rows), set(multipliers) | {mu0, mu1})

        zero = LinearExpr()
        assert equivalent_systems(
            display(decrease.multipliers, "eta", (zero, var(mu1), -var(mu1)), 1),
            normalize(decrease.all_constraints()),
        )
        assert equivalent_systems(
            display(nonneg.multipliers, "gamma", (var(mu0), zero, var(mu1)), 0),
            normalize(nonneg.all_constraints()),
        )


def test_criterion_03_disjunctive_loop():
    with criterion(3, 1.0, "two-guard countdown certified over q and r"):
        program = parse_program(load("example4.clp"))
        for domain in (Q, R):
            verdict = decide(program, domain)
            assert verdict.kind == ALM_RECURRENT
            report = verify(program, verdict.witness, domain)
            assert report.passed
            assert sum(1 for c in report.checks if c.status == "pass") == 2


def test_criterion_04_divergent_program_rejected():
    with criterion(4, 1.0, "growing loop rejected on all decidable domains; 50-step prefix"):
        program = parse_program(load("diverge.clp"))
        for domain in (Q, QPLUS, R, RPLUS):
            assert decide(program, domain).kind == NOT_ALM_RECURRENT
        # the sound-but-incomplete domain must answer unknown, never "no"
        assert decide(program, N).kind == UNKNOWN
        trace = run_ground(program, "p", [0], max_steps=50, seed=1)
        assert trace.steps == 50 and not trace.terminated


def test_criterion_05_naturals_policy():
    with criterion(5, 1.0, "naturals are tri-state: sound-yes / unknown"):
        assert decide(parse_program(load("example72.clp")), N).kind == SOUND_YES
        assert decide(parse_program(load("diverge.clp")), N).kind == UNKNOWN


def test_criterion_06_oracle_equivalence_suite():
    with criterion(6, 60.0, "200 random binary programs: decider vs verifier"):
        rng = random.Random(1234)
        accepted = 0
        for _ in range(200):
            program = parse_program(random_binary_program_text(rng))
            verdict = decide(program, Q)
            if verdict.kind == ALM_RECURRENT:
                accepted += 1
                assert verify(
                    program, verdict.witness, Q
                ).passed, "decider and verifier disagree"
        assert accepted >= 20, "generator should produce a healthy accept rate"


def test_criterion_07_duality_suite():
    with criterion(7, 30.0, "200 random LPs: primal minimum equals dual maximum"):
        rng = random.Random(4321)
        for _ in range(200):
            sys, cost = make_bounded_lp(rng)
            (primal,) = minimize(sys, cost)
            assert primal.status == "optimal"
            dual_sys, dual_obj = explicit_dual(sys, cost)
            (dual,) = minimize(dual_sys, dual_obj)
            assert dual.status == "optimal"
            assert -dual.value == primal.value


def test_criterion_08_derivation_length_bounds():
    with criterion(8, 60.0, "100 seeded derivations per accepted corpus pair"):
        corpus = ("example72.clp", "example4.clp", "multibody.clp", "diverge.clp")
        pairs = 0
        for name in corpus:
            program = parse_program(load(name))
            verdict = decide(program, Q)
            if verdict.witness is None:
                continue
            pairs += 1
            report = check_length_bound(
                verdict.binary, verdict.witness, samples=100, seed=42
            )
            assert len(report.runs) == 100
            assert not report.violations, report.violations
        assert pairs == 3


def test_criterion_09_binarization_invariance():
    with criterion(9, 30.0, "100 random flat programs: verdict survives splitting"):
        rng = random.Random(555)
        for _ in range(100):
            program = parse_program(random_flat_program_text(rng))
            split = binarize(program)
            assert binarize(split) == split
            assert decide(program, Q).kind == decide(split, Q).kind


def test_criterion_10_linear_growth_and_scale():
    with criterion(10, 30.0, "rows grow linearly; 1000-rule analysis in budget"):
        per_rule = None
        for n in (10, 100, 1000):
            program = parse_program(synthetic_family_text(n))
            alm = assemble(program, Q)
            if per_rule is None:
                per_rule = alm.num_rows // n
            assert alm.num_rows == per_rule * n
        big = parse_program(synthetic_family_text(1000))
        verdict = decide(big, Q)
        assert verdict.kind == ALM_RECURRENT
        assert verify(big, verdict.witness, Q).passed

import random
from fractions import Fraction

from almterm import (
    ALM_RECURRENT,
    NOT_ALM_RECURRENT,
    SOUND_YES,
    UNKNOWN,
    N,
    Q,
    QPLUS,
    R,
    RPLUS,
    assemble,
    binarize,
    coeff_table,
    decide,
    drop_redundant,
    equivalent_systems,
    extract_witness,
    feasible_point,
    fm_project,
    minimize,
    parse_program,
    verify,
)
from almterm import decider, lp
from helpers import feasible, load, random_binary_program_text
from linear import LinearExpr, equal, geq, normalize, var
from multiplier_systems import all_constraints, build_rule_primal, build_rule_systems, systems


def golden_context():
    program = parse_program(load("example72.clp"))
    pool = program.pool.clone()
    coeffs = coeff_table(program, pool)
    return program, pool, coeffs


def test_fact_and_unsat_rules_build_nothing():
    program, pool, coeffs = golden_context()
    r1, r2, _ = program.rules
    assert build_rule_systems(r1, Q, pool, coeffs) is None  # fact
    assert build_rule_systems(r2, Q, pool, coeffs) is None  # 0 = 1


def test_golden_rule_primal_layout():
    program, pool, coeffs = golden_context()
    r3 = program.rules[2]
    primal = build_rule_primal(r3, Q, pool, coeffs)
    x = r3.head.args[0]
    y = r3.body[0].args[0]
    assert primal.system.variables == (primal.one_var, x, y)
    assert [bound for _, bound in primal.system.rows] == [1, -1, -72, 1, -1]
    mu0, mu1 = coeffs["p"]
    # head and body predicate coincide, so the constant column cancels
    assert primal.decrease_layout[0].coeffs == {}
    assert primal.decrease_layout[1].coeffs == {mu1: 1}
    assert primal.decrease_layout[2].coeffs == {mu1: -1}
    assert primal.nonneg_layout[0].coeffs == {mu0: 1}
    assert primal.nonneg_layout[1].coeffs == {}
    assert primal.nonneg_layout[2].coeffs == {mu1: 1}


def test_golden_rule_dual_systems_verbatim():
    """The generated multiplier systems match the hand-derived reference rows
    exactly (naming y1..y5 / z1..z5 in row order)."""
    program, pool, coeffs = golden_context()
    r3 = program.rules[2]
    decrease, nonneg = build_rule_systems(r3, Q, pool, coeffs)
    mu0, mu1 = coeffs["p"]

    y1, y2, y3, y4, y5 = decrease.multipliers
    assert [c.gap().coeffs for c in decrease.balance] == [
        {y1: 1, y2: -1},
        {y3: -1, y4: -1, y5: 1, mu1: -1},
        {y4: 1, y5: -1, mu1: 1},
    ]
    assert decrease.objective.coeffs == {y1: 1, y2: -1, y3: -72, y4: 1, y5: -1}
    assert decrease.bound == 1

    z1, z2, z3, z4, z5 = nonneg.multipliers
    assert [c.gap().coeffs for c in nonneg.balance] == [
        {z1: 1, z2: -1, mu0: -1},
        {z3: -1, z4: -1, z5: 1},
        {z4: 1, z5: -1, mu1: -1},
    ]
    assert nonneg.objective.coeffs == {z1: 1, z2: -1, z3: -72, z4: 1, z5: -1}
    assert nonneg.bound == 0


def test_golden_rule_dual_systems_equivalent_to_display():
    """Same check, but semantic: write the reference systems with explicit
    eta/gamma value variables, project those away, and compare solution sets
    by mutual LP entailment."""
    program, pool, coeffs = golden_context()
    r3 = program.rules[2]
    decrease, nonneg = build_rule_systems(r3, Q, pool, coeffs)
    mu0, mu1 = coeffs["p"]

    def display(multipliers, eta_name, balance_rhs, bound):
        m1, m2, m3, m4, m5 = map(var, multipliers)
        eta = pool.fresh(eta_name)
        rows = [
            equal(var(eta), m1 - m2 - m3.scale(72) + m4 - m5),
            geq(var(eta), bound),
            equal(m1 - m2, balance_rhs[0]),
            equal(-m3 - m4 + m5, balance_rhs[1]),
            equal(m4 - m5, balance_rhs[2]),
        ]
        rows += [geq(var(v), 0) for v in multipliers]
        keep = set(multipliers) | {mu0, mu1}
        return fm_project(normalize(rows), keep)

    zero = LinearExpr()
    reference_decrease = display(
        decrease.multipliers, "eta", (zero, var(mu1), -var(mu1)), 1
    )
    mine_decrease = normalize(decrease.all_constraints())
    assert equivalent_systems(reference_decrease, mine_decrease)

    reference_nonneg = display(
        nonneg.multipliers, "gamma", (var(mu0), zero, var(mu1)), 0
    )
    mine_nonneg = normalize(nonneg.all_constraints())
    assert equivalent_systems(reference_nonneg, mine_nonneg)


def test_dual_maximum_with_pinned_coefficients():
    """Fixing the level coefficients at (73, -1) turns the decrease system
    into a plain LP whose maximum is exactly 1 (derived by hand: the balance
    rows force y3 = 0 and y4 - y5 = 1, so the objective is identically 1)."""
    program, pool, coeffs = golden_context()
    r3 = program.rules[2]
    decrease, _ = build_rule_systems(r3, Q, pool, coeffs)
    mu0, mu1 = coeffs["p"]
    pins = [equal(var(mu0), 73), equal(var(mu1), -1)]
    # balance + nonnegativity only: the bound row is what we are maximising
    sys = normalize(
        pins
        + list(decrease.balance)
        + [geq(var(v), 0) for v in decrease.multipliers]
    )
    (out,) = minimize(sys, decrease.objective.scale(-1).coeffs)
    assert out.status == "optimal" and out.value == -1


def test_assemble_counts():
    program, _, _ = golden_context()
    alm = assemble(program, Q)
    assert len(systems(alm)) == 2
    assert sorted(dict(alm.skipped).values()) == ["fact", "unsat"]
    assert set(alm.coeff_ids) == {"p"}
    assert len(alm.coeff_ids["p"]) == 2

    facts = parse_program("p(x) :- x = 1.\nq(x) :- x = 2.")
    assert systems(assemble(facts, Q)) == ()

    example4 = parse_program(load("example4.clp"))
    alm4 = assemble(example4, Q)
    assert len(systems(alm4)) == 4
    assert set(alm4.coeff_ids) == {"q"}


def test_assemble_tests_each_rule_satisfiability_once(monkeypatch):
    """Every rule, a fact included, is tested by its projected dual cone
    (Farkas): one projection per rule and no LP at all."""
    program = parse_program(
        "p(x) :- x = 2.\n"
        "p(x) :- 0 = 1.\n"
        "p(x) :- x >= 1, 0 >= x, y = x, p(y).\n"
        "p(x) :- 72 >= x, y = x + 1, p(y).\n"
        "q(x) :- x >= 1, y = x - 1, p(y).\n"
    )
    projections = []
    real = decider.project_constraints

    def counting(eqs, ineqs, keep):
        projections.append(keep)
        return real(eqs, ineqs, keep)

    def refuse(*args):
        raise AssertionError("assemble ran an LP")

    monkeypatch.setattr(decider, "project_constraints", counting)
    monkeypatch.setattr(lp, "_phase_one", refuse)
    alm = assemble(program, Q)
    ids = [rule.rule_id for rule in program.rules]
    assert len(projections) == len(program.rules)
    assert alm.skipped == ((ids[0], "fact"), (ids[1], "unsat"), (ids[2], "unsat"))
    assert [cone.rule.rule_id for cone in alm.cones] == ids[3:]
    # an unsatisfiable fact is skipped as such
    alm = assemble(parse_program("p(x) :- x >= 1, 0 >= x.\n"), QPLUS)
    assert alm.skipped == ((alm.skipped[0][0], "unsat"),)


def test_decide_golden_program():
    program, _, _ = golden_context()
    verdict = decide(program, Q)
    assert verdict.kind == ALM_RECURRENT
    mu0, mu1 = verdict.alm.coeff_ids["p"]
    witness_vec = verdict.witness.coeffs["p"]
    # the witness satisfies the known coefficient-space constraints
    assert witness_vec[0] + 73 * witness_vec[1] >= 0
    assert witness_vec[1] <= -1
    expected = normalize(
        [geq(var(mu0) + var(mu1).scale(73), 0), geq(-var(mu1), 1)]
    )
    assert equivalent_systems(verdict.projection, expected)


def test_full_system_projection_matches_decide_projection():
    """Projecting the monolithic conjunction of all multiplier systems onto
    the coefficient variables gives the same two rows as the blockwise
    pipeline used by decide()."""
    program, _, _ = golden_context()
    alm = assemble(program, Q)
    mu_vars = alm.coeff_variables()
    monolithic = drop_redundant(fm_project(normalize(all_constraints(alm)), mu_vars))
    mu0, mu1 = alm.coeff_ids["p"]
    expected = normalize(
        [geq(var(mu0) + var(mu1).scale(73), 0), geq(-var(mu1), 1)]
    )
    assert monolithic.num_rows == 2
    assert equivalent_systems(monolithic, expected)
    assert equivalent_systems(
        monolithic, decide(program, Q).projection
    )


def test_projection_is_computed_on_first_read_only(monkeypatch):
    """``decide`` keeps the coefficient system and runs no redundancy
    elimination; the first read of ``projection`` runs it once, later reads
    reuse it, and a negative verdict has none."""
    calls = []
    real = decider.drop_redundant

    def counted(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(decider, "drop_redundant", counted)
    program, _, _ = golden_context()
    verdict = decide(program, Q)
    assert calls == []
    first, second = verdict.projection, verdict.projection
    assert first is second and calls == [verdict.coefficients]
    assert first == real(verdict.coefficients)
    negative = decide(parse_program(load("diverge.clp")), Q)
    assert negative.kind == NOT_ALM_RECURRENT and negative.coefficients.num_rows > 0
    assert negative.projection is None and len(calls) == 1


def test_empty_and_bare_fact_programs():
    empty = parse_program("% nothing here\n")
    verdict = decide(empty, Q)
    assert verdict.kind == ALM_RECURRENT and verdict.witness.coeffs == {}

    bare = parse_program("p(x).")
    verdict = decide(bare, Q)
    assert verdict.kind == ALM_RECURRENT
    assert verdict.witness.coeffs["p"] == (0, 0)


def test_decide_example4_all_real_domains():
    program = parse_program(load("example4.clp"))
    for domain in (Q, R):
        verdict = decide(program, domain)
        assert verdict.kind == ALM_RECURRENT
        report = verify(program, verdict.witness, domain)
        assert report.passed
        assert len([c for c in report.checks if c.status == "pass"]) == 2


def test_decide_diverging_program():
    program = parse_program(load("diverge.clp"))
    for domain in (Q, QPLUS, R, RPLUS):
        assert decide(program, domain).kind == NOT_ALM_RECURRENT
    assert decide(program, N).kind == UNKNOWN


def test_decide_over_naturals_is_tristate():
    program, _, _ = golden_context()
    verdict = decide(program, N)
    assert verdict.kind == SOUND_YES
    assert verdict.witness is not None


def test_extract_witness_examples():
    program, _, _ = golden_context()
    alm = assemble(program, Q)
    mu0, mu1 = alm.coeff_ids["p"]
    lm = extract_witness(alm, {mu0: Fraction(73), mu1: Fraction(-1)})
    assert lm.coeffs["p"] == (73, -1)
    assert lm.level_of("p", [72]) == 1

    facts = parse_program("p(x) :- x = 1.\nq(x, y) :- x = y, r.")
    empty = assemble(binarize(facts), Q)
    lm = extract_witness(empty, {})
    assert all(all(c == 0 for c in vec) for vec in lm.coeffs.values())
    assert set(lm.coeffs) == {"p", "q", "r"}


def test_witness_satisfies_projection_and_projection_points_extend():
    program, _, _ = golden_context()
    verdict = decide(program, Q)
    point = {
        v: c
        for v, c in zip(
            verdict.alm.coeff_ids["p"], verdict.witness.coeffs["p"]
        )
    }
    assert verdict.projection.satisfied_by(point)
    # a fresh point of the projection extends to a full multiplier assignment
    shadow = feasible_point(verdict.projection)
    pins = [equal(var(v), shadow[v]) for v in verdict.projection.variables]
    full = normalize(all_constraints(verdict.alm) + pins)
    assert feasible(full)


def test_scaling_closure_of_witnesses():
    for name in ("example72.clp", "example4.clp", "multibody.clp"):
        program = parse_program(load(name))
        verdict = decide(program, Q)
        assert verdict.witness is not None
        doubled = verdict.witness.scale(2)
        assert verify(program, doubled, Q).passed


def test_binarization_invariance_spot():
    program = parse_program(load("multibody.clp"))
    assert decide(program, Q).kind == decide(binarize(program), Q).kind


def test_zero_arity_self_loop_is_rejected():
    program = parse_program("loop :- loop.")
    assert decide(program, Q).kind == NOT_ALM_RECURRENT


def test_row_growth_is_linear_in_rule_count():
    from helpers import synthetic_family_text

    sizes = {}
    for n in (5, 10, 20):
        program = parse_program(synthetic_family_text(n))
        sizes[n] = assemble(program, Q).num_rows
    per_rule = sizes[5] / 5
    assert sizes[10] == per_rule * 10
    assert sizes[20] == per_rule * 20


def cube_rule_text(k: int, sum_first: bool = False) -> str:
    """``p(X1..Xk) :- 0 <= Xi <= 1, 0 <= Yi <= 1, X1+..+Xk >= Y1+..+Yk + 1,
    p(Y1..Yk).``, the box rows first unless ``sum_first``."""
    xs = [f"X{i}" for i in range(1, k + 1)]
    ys = [f"Y{i}" for i in range(1, k + 1)]
    box = [f"0 <= {v}, {v} <= 1" for v in xs + ys]
    total = f"{' + '.join(xs)} >= {' + '.join(ys)} + 1"
    items = [total, *box] if sum_first else [*box, total]
    return f"p({', '.join(xs)}) :- {', '.join(items)}, p({', '.join(ys)})."


def test_cube_family_cone_rows():
    """The README's complexity note: Fourier-Motzkin keeps a row per point
    and ray of the rule's polyhedron, so the one projected cone of the cube
    rule grows exponentially in k, and how many rows it keeps depends on the
    order of the constraints."""
    rows = {}
    for k, sum_first in ((2, False), (3, False), (4, False), (3, True)):
        alm = assemble(parse_program(cube_rule_text(k, sum_first)), Q)
        assert len(alm.cones) == 1
        rows[k, sum_first] = len(alm.cones[0].rows)
        assert alm.num_rows == rows[k, sum_first]
    assert rows == {(2, False): 6, (3, False): 256, (4, False): 4416, (3, True): 188}


def test_num_rows_counts_a_shared_cone_once_per_child():
    """The two children of ``multibody.clp``'s split rule share one
    projected cone of 2 rows, which ``num_rows`` counts for each of them."""
    alm = assemble(binarize(parse_program(load("multibody.clp"))), Q)
    first, second = alm.cones
    assert first.rows is second.rows and len(first.rows) == 2
    assert alm.num_rows == 4


def test_random_binary_verdicts_have_verified_witnesses():
    rng = random.Random(5)
    accepted = 0
    for _ in range(60):
        program = parse_program(random_binary_program_text(rng))
        verdict = decide(program, Q)
        if verdict.kind == ALM_RECURRENT:
            accepted += 1
            assert verify(program, verdict.witness, Q).passed
    assert accepted >= 5

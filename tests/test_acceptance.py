"""End-to-end acceptance runs over generated ensembles.

Each test covers one advertised guarantee, records a one-line verdict
through acceptance_log (printed in the terminal summary), and then
asserts.  Ensembles are built once per module and shared.
"""

import math
import time

import numpy as np
import pytest

import acceptance_log
from helpers import (
    lifted_payoff_oracle,
    mixed_payoff_oracle,
    payoff_matrix_oracle,
    population_mismatches,
    random_game,
    random_mixed,
    regret_oracle,
)
from lippoly import (
    LipschitzViolation,
    MixedProfile,
    PolymatrixGame,
    SolverConfig,
    Valid,
    check_game,
    default_target_epsilon,
    induce,
    regret_report,
    replay,
    solve_mixed,
)
from lippoly.game import (
    discrepancy_vector,
    payoff_matrix,
    payoffs,
    pure_payoff,
    regrets,
)
from lippoly.harness.baseline import sample_baseline
from lippoly.harness.generator import GeneratorSpec, generate
from lippoly.harness.pipeline import run_pipeline, write_report
from lippoly.population import reduce_and_solve
from lippoly.purify import purify
from lippoly.purify.common import replica_regrets

FAMILIES = ("uniform_coefficients", "sparse", "coordination_mix")


def family_spec(n, m, lam, seed):
    family = FAMILIES[seed % 3]
    extra = {}
    if family == "sparse":
        extra["density"] = 0.5
    elif family == "coordination_mix":
        extra["weight"] = 0.5
    return GeneratorSpec(n=n, m=m, lam=lam, seed=seed, family=family, **extra)


def run_one(n, m, seed):
    lam = 1.0 / n
    game = generate(family_spec(n, m, lam, seed))
    if m == 2:
        target = lam / 8.0
    else:
        target = ((m - 1) / m) ** 2 * lam
    solved = solve_mixed(game, SolverConfig(target_epsilon=target, seed=seed))
    assert solved.converged, (n, m, seed)
    final, trace = purify(game, solved.profile)
    return {
        "n": n,
        "m": m,
        "lam": lam,
        "seed": seed,
        "game": game,
        "mixed": solved.profile,
        "final": final,
        "trace": trace,
    }


@pytest.fixture(scope="module")
def binary_ensemble():
    start = time.monotonic()
    runs = [run_one(n, 2, seed) for n in (20, 50, 100, 200) for seed in range(50)]
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def maction_ensemble():
    start = time.monotonic()
    runs = [
        run_one(n, m, seed)
        for m in (3, 4, 8)
        for n in (20, 50)
        for seed in range(17)
    ]
    return runs, time.monotonic() - start


def test_criterion_1_binary_final_regret_bound(binary_ensemble):
    runs, elapsed = binary_ensemble
    worst_ratio = 0.0
    failures = 0
    for r in runs:
        bound = r["lam"] * (70.0 * r["n"] ** 2) ** (1.0 / 3.0) + 1e-9
        fresh = regret_report(
            r["game"], MixedProfile.from_pure(r["final"], 2)
        ).max_regret
        if fresh > bound:
            failures += 1
        worst_ratio = max(worst_ratio, fresh / bound)
    ok = failures == 0 and len(runs) >= 200 and elapsed < 120.0
    acceptance_log.record(
        1,
        ok,
        f"{len(runs)} binary games (n in 20/50/100/200, lam=1/n, input regret "
        f"<= lam/8), worst final-regret/bound {worst_ratio:.3f}, "
        f"ensemble built in {elapsed:.1f}s (budget 120s)",
    )
    assert ok, (failures, len(runs), elapsed)


def test_criterion_2_binary_intermediate_bounds(binary_ensemble):
    runs, _ = binary_ensemble
    failures = 0
    for r in runs:
        game, trace, n, lam = r["game"], r["trace"], r["n"], r["lam"]
        U = payoff_matrix_oracle(game, trace.wsne_profile)
        reg = U.max(axis=1, keepdims=True) - U
        support_ok = reg[trace.wsne_profile.probs > 0.0].max() <= lam * math.sqrt(n) + 1e-9

        state = replay(trace, game)
        members = sorted(state.relevant_sets[-1])
        d = discrepancy_vector(game, state.profiles[-1])
        cost = float(d[members] @ d[members])
        cost_ok = (
            abs(cost - trace.potentials[-1]) <= 1e-9
            and cost <= 5.0 * lam * lam * n * n + 1e-9
        )

        delta = lam * (20.0 * n * n) ** (1.0 / 3.0)
        switch_ok = (
            abs(trace.thresholds["delta"] - delta) <= 1e-12 * delta
            and len(trace.switched_players) <= trace.potentials[-1] / delta**2 + 1e-9
        )
        if not (support_ok and cost_ok and switch_ok):
            failures += 1
    ok = failures == 0
    acceptance_log.record(
        2,
        ok,
        f"support regret <= lam*sqrt(n), terminal cost <= 5 lam^2 n^2, "
        f"switchers <= cost/delta^2 on all {len(runs)} runs of criterion 1",
    )
    assert ok, failures


def test_criterion_3_maction_bounds(maction_ensemble):
    runs, elapsed = maction_ensemble
    worst_ratio = 0.0
    failures = 0
    for r in runs:
        n, m, lam, trace = r["n"], r["m"], r["lam"], r["trace"]
        logterm = math.log(3.0 * m)
        bound = 6.0 * lam * (n * n * m * logterm) ** (1.0 / 3.0) + 1e-9
        fresh = regret_report(
            r["game"], MixedProfile.from_pure(r["final"], m)
        ).max_regret
        terminal_ok = trace.potentials[-1] < 8.0 * n * n * lam * lam * logterm
        if fresh > bound or not terminal_ok:
            failures += 1
        worst_ratio = max(worst_ratio, fresh / bound)
    ok = failures == 0 and len(runs) >= 100 and elapsed < 180.0
    acceptance_log.record(
        3,
        ok,
        f"{len(runs)} games (m in 3/4/8, n in 20/50), worst final-regret/bound "
        f"{worst_ratio:.3f}, terminal variance under 8 n^2 lam^2 log(3m) on all, "
        f"ensemble built in {elapsed:.1f}s (budget 180s)",
    )
    assert ok, (failures, len(runs), elapsed)


def test_criterion_4_oracle_equivalence():
    lams = (0.1, 0.3, 0.05)
    worst_payoff_gap = 0.0
    for idx in range(50):
        n = 4 + idx % 7
        game = random_game(n, 2, lams[idx % 3], seed=500 + idx)
        probs = random_mixed(n, 2, seed=900 + idx)
        U = payoff_matrix(game, probs)
        for i in range(n):
            for j in range(2):
                want = mixed_payoff_oracle(game, i, j, probs.probs)
                worst_payoff_gap = max(worst_payoff_gap, abs(U[i, j] - want))

    worst_regret_gap = 0.0
    for idx in range(30):
        n = 2 + idx % 3
        m = 2 + idx % 2
        game = random_game(n, m, 0.2, seed=1500 + idx)
        probs = random_mixed(n, m, seed=1600 + idx)
        report = regret_report(game, probs)
        for i in range(n):
            want = regret_oracle(game, i, probs.probs)
            worst_regret_gap = max(
                worst_regret_gap, abs(report.per_player_regret[i] - want)
            )

    # The kernel on a (k, n, m) stack: each profile's payoffs against the
    # contraction oracle, its regrets against regret_report.
    worst_stack_gap = 0.0
    for idx in range(10):
        n, m = 3 + idx % 5, 2 + idx % 3
        game = random_game(n, m, 0.2, seed=2500 + idx)
        stack = np.stack([random_mixed(n, m, seed=2600 + 8 * idx + k).probs for k in range(8)])
        U = payoffs(game, stack)
        for P, U_k, reg_k in zip(stack, U, regrets(U, stack)):
            per = regret_report(game, MixedProfile(P)).per_player_regret
            worst_stack_gap = max(
                worst_stack_gap,
                float(np.abs(U_k - payoff_matrix_oracle(game, P)).max()),
                float(np.abs(np.maximum(reg_k, 0.0) - per).max()),
            )

    ok = worst_payoff_gap <= 1e-9 and worst_regret_gap <= 1e-9 and worst_stack_gap <= 1e-12
    acceptance_log.record(
        4,
        ok,
        f"50 binary games n<=10: worst exhaustive-expectation gap "
        f"{worst_payoff_gap:.2e}; 30 games n<=4 m<=3: worst enumerated-regret "
        f"gap {worst_regret_gap:.2e}; 10 stacks of 8 profiles: worst "
        f"contraction/regret gap {worst_stack_gap:.2e}",
    )
    assert ok, (worst_payoff_gap, worst_regret_gap, worst_stack_gap)


def test_criterion_5_population_round_trip():
    L = 50
    probes = population_probes = 0
    worst_probe_gap = worst_population_gap = 0.0
    failures = 0
    for idx in range(20):
        lam = 0.2 + 0.015 * idx
        base = random_game(3, 2, lam, seed=700 + idx)
        lifted = induce(base, L)
        if not isinstance(check_game(lifted), Valid) or lifted.lam != lam / L:
            failures += 1

        profile, report = reduce_and_solve(base, epsilon=0.3, L=L, seed=idx)
        scaled = profile.probs * L
        uniform_ok = np.abs(scaled - np.round(scaled)).max() <= 1e-9
        transfer_ok = (
            report["solver_converged"]
            and report["aggregate_base_regret"] <= report["purified_regret"] + 1e-9
        )
        if not (uniform_ok and transfer_ok):
            failures += 1

        lifted_mixed = random_mixed(lifted.n, 2, seed=3000 + idx)
        U = payoff_matrix_oracle(lifted, lifted_mixed)
        expected = lifted_payoff_oracle(base, L, lifted_mixed)
        rng = np.random.default_rng(4000 + idx)
        for v, j in zip(rng.integers(0, lifted.n, 50), rng.integers(0, 2, 50)):
            gap = abs(expected[v, j] - U[v, j])
            worst_probe_gap = max(worst_probe_gap, gap)
            probes += 1

        # The reduction purifies on per-population state: the same decisions
        # as purify on the lift, and every replica's regret under the pure
        # result is the one the lift's coefficients give.
        config = SolverConfig(target_epsilon=default_target_epsilon(base, L=L), seed=idx)
        problems, trace = population_mismatches(base, solve_mixed(base, config).profile, L)
        if problems or trace.final_max_regret != report["purified_regret"]:
            failures += 1
        actions = trace.final_profile.actions
        regrets = replica_regrets(base, L, actions)[0]
        U = payoff_matrix_oracle(lifted, MixedProfile.from_pure(trace.final_profile, 2))
        oracle = U.max(axis=1) - U[np.arange(lifted.n), actions]
        for v in rng.integers(0, lifted.n, 50):
            worst_population_gap = max(worst_population_gap, abs(regrets[v] - oracle[v]))
            population_probes += 1

    ok = (
        failures == 0
        and probes >= 1000
        and population_probes >= 1000
        and max(worst_probe_gap, worst_population_gap) <= 1e-12
    )
    acceptance_log.record(
        5,
        ok,
        f"20 base games (n=3, m=2) at L=50: lifted games valid at lam/L, "
        f"aggregate regret <= purified regret on all, {probes} "
        f"base-at-aggregates-vs-lifted probes within {worst_probe_gap:.2e}, "
        f"population-state purification matches the lift's on all, {population_probes} "
        f"replica-regret probes within {worst_population_gap:.2e}",
    )
    assert ok, (failures, probes, worst_probe_gap, population_probes, worst_population_gap)


def test_criterion_6_planted_witnesses():
    rng = np.random.default_rng(4242)
    confirmed = 0
    for idx in range(100):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.05, 0.3))
        game = random_game(n, m, lam, seed=1000 + idx)
        beta = game.beta.copy()
        i = int(rng.integers(0, n))
        ip = int((i + 1 + rng.integers(0, n - 1)) % n)
        j, jp = int(rng.integers(0, m)), int(rng.integers(0, m))
        # Anything past 2 lam clears the old spread plus the allowance.
        beta[i, ip, j, jp] += lam * float(rng.uniform(2.1, 3.0))
        bumped = PolymatrixGame(n=n, m=m, beta=beta, lam=lam)

        outcome = check_game(bumped)
        if not isinstance(outcome, LipschitzViolation):
            continue
        w = outcome.witness
        hamming = int((w.profile_a.actions != w.profile_b.actions).sum())
        held = int(w.profile_a.actions[w.player])
        observed = abs(
            pure_payoff(bumped, w.player, held, w.profile_a)
            - pure_payoff(bumped, w.player, held, w.profile_b)
        )
        if (
            hamming == 1
            and abs(observed - w.observed_gap) <= 1e-12
            and observed > lam * hamming
        ):
            confirmed += 1
    ok = confirmed == 100
    acceptance_log.record(
        6,
        ok,
        f"{confirmed}/100 planted single-coefficient faults produced a witness "
        f"whose recomputed pure-payoff gap beats lam x Hamming distance",
    )
    assert ok, confirmed


def test_criterion_7_property_suite(binary_ensemble, tmp_path):
    runs, _ = binary_ensemble
    rounding_checks = 0
    failures = 0
    for r in runs:
        trace, game = r["trace"], r["game"]
        state = replay(trace, game)
        for k, actor in enumerate(trace.order):
            A = trace.coefficients[k]
            if A is None:
                continue
            before = state.profiles[k].probs[actor, 1]
            after = state.profiles[k + 1].probs[actor, 1]
            if A * (after - before) > 1e-12:
                failures += 1
            rounding_checks += 1
        for earlier, later in zip(state.relevant_sets, state.relevant_sets[1:]):
            if not earlier <= later:
                failures += 1
        outside = [i for i in range(game.n) if i not in state.relevant_sets[-1]]
        report = regret_report(game, state.profiles[-1])
        if outside and report.per_player_regret[outside].max() > 1e-9:
            failures += 1

    # Steps 1 and 3 act simultaneously: the snap set and the switch set
    # depend only on the profile they read, never on the sweep order.
    base = runs[0]
    for order_seed in (None, 0, 1):
        n = base["n"]
        order = (
            None
            if order_seed is None
            else tuple(np.random.default_rng(order_seed).permutation(n))
        )
        _, t2 = purify(base["game"], base["mixed"], order=order)
        if not np.array_equal(t2.wsne_profile.probs, base["trace"].wsne_profile.probs):
            failures += 1
        rounded = replay(t2, base["game"]).profiles[-1]
        reg = regret_report(base["game"], rounded).per_player_regret
        if set(t2.switched_players) != set(np.flatnonzero(reg >= t2.thresholds["delta"])):
            failures += 1
        if not all(entry["ok"] for entry in t2.bounds.values()):
            failures += 1

    spec = GeneratorSpec(n=20, m=2, lam=0.05, seed=2024)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_report(run_pipeline(spec=spec, trials=3), str(dir_a))
    write_report(run_pipeline(spec=spec, trials=3), str(dir_b))
    identical = (dir_a / "records.jsonl").read_bytes() == (
        dir_b / "records.jsonl"
    ).read_bytes() and (dir_a / "report.json").read_bytes() == (
        dir_b / "report.json"
    ).read_bytes()
    if not identical:
        failures += 1

    ok = failures == 0 and rounding_checks > 0
    acceptance_log.record(
        7,
        ok,
        f"{rounding_checks} rounding steps with A*dp <= 1e-12, monotone sets "
        f"and outside-set zero regret on {len(runs)} runs, order-independent "
        f"snap/switch sets, byte-identical reports",
    )
    assert ok, failures


def test_criterion_8_baseline_tabulation(binary_ensemble):
    runs, _ = binary_ensemble
    table = {}
    structural_bad = 0
    for r in runs:
        n, lam = r["n"], r["lam"]
        rep = sample_baseline(r["game"], r["mixed"], trials=1000, seed=r["seed"])
        expect_threshold = lam * math.sqrt(8.0 * n * math.log(2.0 * 2 * n))
        if (
            len(rep.regrets) != 1000
            or abs(rep.threshold - expect_threshold) > 1e-12
            or rep.min_regret < 0.0
            or not 0.0 <= rep.fraction_within_threshold <= 1.0
        ):
            structural_bad += 1
        table.setdefault(n, []).append(
            (rep.min_regret, r["trace"].final_max_regret, rep.threshold)
        )

    cells = []
    for n in sorted(table):
        mins, finals, thresholds = zip(*table[n])
        cells.append(
            f"n={n}: sampled-min med {np.median(mins):.2e}, pipeline med "
            f"{np.median(finals):.2e}, threshold {thresholds[0]:.3f}"
        )
    ok = structural_bad == 0
    acceptance_log.record(8, ok, "; ".join(cells))
    assert ok, structural_bad

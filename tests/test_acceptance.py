"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight simulation batches are shared across criteria via
module-scoped fixtures; all are deterministic (base seed 0).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from delayed_bandits.bounds import (
    bernoulli_kl,
    regret_upper_bound,
    tuned_minimax_lower_bound,
)
from delayed_bandits.delays import GeometricDelay
from delayed_bandits.estimator import WindowedEstimator
from delayed_bandits.harness import (
    ExperimentConfig,
    apply_preset,
    concentration_coverage,
    elliptical_potential_bound,
    run_batch,
)
from delayed_bandits.io import write_traces_csv


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def preset_config(name: str, policy: str, n_runs: int) -> ExperimentConfig:
    config = apply_preset(ExperimentConfig(), name)
    return replace(config, policy=policy, n_runs=n_runs, base_seed=0)


@pytest.fixture(scope="module")
def batch_a_ucb():
    return run_batch(preset_config("A", "otf_linucb", 200))


@pytest.fixture(scope="module")
def batch_b_ucb():
    return run_batch(preset_config("B", "otf_linucb", 200))


@pytest.fixture(scope="module")
def batch_c_ucb():
    return run_batch(preset_config("C", "otf_linucb", 100))


@pytest.fixture(scope="module")
def batch_a_ts():
    return run_batch(preset_config("A", "otf_lints", 100))


@pytest.fixture(scope="module")
def batch_c_ts():
    return run_batch(preset_config("C", "otf_lints", 100))


@pytest.fixture(scope="module")
def batch_a_oracle():
    return run_batch(preset_config("A", "oracle_linucb", 100))


@pytest.fixture(scope="module")
def batch_a_random():
    return run_batch(preset_config("A", "random", 100))


def first_runs_mean_final(traces, n: int) -> float:
    finals = [tr.cum_regret[-1] for tr in traces if tr.run_id < n]
    assert len(finals) == n
    return float(np.mean(finals))


def test_criterion_1_capture_probability_golden_numbers():
    tau_aa = GeometricDelay(100).cdf(100)
    tau_ab = GeometricDelay(100).cdf(500)
    tau_c = GeometricDelay(500).cdf(100)
    ok = (abs(tau_aa - 0.63) <= 0.01 and abs(tau_ab - 0.993) <= 0.001
          and abs(1 / tau_c - 5.5) <= 0.1)
    report("1 (capture probability golden numbers)", ok,
           f"tau(100,100)={tau_aa:.4f}, tau(100,500)={tau_ab:.4f}, "
           f"1/tau(500,100)={1 / tau_c:.3f}")
    assert ok


def test_criterion_2_ridge_equivalence_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        T = int(rng.integers(2, 201))
        lam = float(rng.uniform(0.2, 3.0))
        raw = rng.standard_normal((T, d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        actions = raw * rng.uniform(0.1, 1.0, size=(T, 1))
        xs = rng.integers(0, 2, size=T)
        est = WindowedEstimator(d=d, lam=lam, m=T)
        for t, (a, x) in enumerate(zip(actions, xs), start=1):
            est.record_action(a)
            if x:
                est.record_conversion(t)
        ridge = np.linalg.solve(lam * np.eye(d) + actions.T @ actions,
                                actions.T @ xs.astype(float))
        worst = max(worst, float(np.abs(est.estimate() - ridge).max()))
    ok = worst <= 1e-10
    report("2 (ridge equivalence oracle)", ok, f"max deviation {worst:.3e}")
    assert ok


def test_criterion_3_rank_one_update_fidelity():
    rng = np.random.default_rng(3)
    est = WindowedEstimator(d=5, lam=1.0, m=50)
    eye = np.eye(5)
    worst = 0.0
    raw = rng.standard_normal((10_000, 5))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    raw *= rng.uniform(0.05, 1.0, size=(10_000, 1))
    for a in raw:
        est.record_action(a)
        worst = max(worst, float(np.abs(est.V @ est.V_inv - eye).max()))
    ok = worst <= 1e-8
    report("3 (rank-one inverse fidelity over 1e4 steps)", ok,
           f"max |V V_inv - I| = {worst:.3e}")
    assert ok


def test_criterion_4_elliptical_potential(batch_a_ucb, batch_b_ucb, batch_c_ucb,
                                           batch_a_ts, batch_c_ts,
                                           batch_a_oracle, batch_a_random):
    bound = elliptical_potential_bound(d=5, lam=1.0, T=3000)
    worst = 0.0
    episodes = 0
    for traces, _ in (batch_a_ucb, batch_b_ucb, batch_c_ucb, batch_a_ts,
                      batch_c_ts, batch_a_oracle, batch_a_random):
        for tr in traces:
            worst = max(worst, tr.elliptical_potential)
            episodes += 1
    ok = worst <= bound + 1e-9
    report("4 (elliptical potential bound)", ok,
           f"max potential {worst:.2f} <= {bound:.2f} over {episodes} episodes")
    assert ok


def test_criterion_5_confidence_coverage():
    config = ExperimentConfig(d=3, K=10, T=500, delay="geometric",
                              delay_mean=20.0, m=40, delta=0.05, lam=1.0,
                              base_seed=0)
    coverage = concentration_coverage(config, 500)
    ok = coverage >= 0.87
    report("5 (simultaneous confidence coverage)", ok,
           f"coverage {coverage:.3f} >= 0.87")
    assert ok


def test_criterion_6_upper_bound_dominates(batch_a_ucb, batch_b_ucb):
    results = []
    for name, (traces, _) in (("A", batch_a_ucb), ("B", batch_b_ucb)):
        config = preset_config(name, "otf_linucb", 200)
        bound = regret_upper_bound(config.T, config.d, config.lam, config.delta,
                                   config.resolved_window, config.tau_m)
        finals = np.array([tr.cum_regret[-1] for tr in traces])
        frac = float(np.mean(finals <= bound))
        results.append((name, frac, bound))
    ok = all(frac >= 0.90 for _, frac, _ in results)
    report("6 (upper bound dominates per-run regret)", ok,
           "; ".join(f"preset {n}: {f:.2%} below {b:.0f}" for n, f, b in results))
    assert ok


def test_criterion_7_qualitative_regret_shape(batch_a_ucb, batch_b_ucb,
                                              batch_c_ucb, batch_a_ts,
                                              batch_c_ts):
    a_traces, _ = batch_a_ucb
    b_traces, _ = batch_b_ucb
    a_mean = first_runs_mean_final(a_traces, 100)
    b_mean = first_runs_mean_final(b_traces, 100)
    in_band = 30.0 <= a_mean <= 300.0 and 30.0 <= b_mean <= 300.0

    def mean_trace_100(traces):
        stack = np.stack([tr.cum_regret for tr in traces if tr.run_id < 100])
        return stack.mean(axis=0)

    frac_a = mean_trace_100(a_traces)[1499] / a_mean
    frac_b = mean_trace_100(b_traces)[1499] / b_mean
    flattens_earlier = frac_b > frac_a

    c_ucb = first_runs_mean_final(batch_c_ucb[0], 100)
    c_ts = first_runs_mean_final(batch_c_ts[0], 100)
    a_ts = first_runs_mean_final(batch_a_ts[0], 100)
    near_linear = c_ucb > 2 * a_mean and c_ts > 2 * a_ts

    ok = in_band and flattens_earlier and near_linear
    report("7 (qualitative regret shape)", ok,
           f"A={a_mean:.0f}, B={b_mean:.0f} in [30,300]; "
           f"halfway fraction B {frac_b:.2f} > A {frac_a:.2f}; "
           f"C ucb {c_ucb:.0f} > 2*{a_mean:.0f}, C ts {c_ts:.0f} > 2*{a_ts:.0f}")
    assert ok


def test_criterion_8_policy_ordering(batch_a_ucb, batch_a_oracle, batch_a_random):
    def stats100(traces):
        finals = np.array([tr.cum_regret[-1] for tr in traces if tr.run_id < 100])
        return finals.mean(), finals.var(ddof=1) / len(finals)

    oracle_mean, oracle_var = stats100(batch_a_oracle[0])
    ucb_mean, ucb_var = stats100(batch_a_ucb[0])
    random_mean, random_var = stats100(batch_a_random[0])
    gap1 = (ucb_mean - oracle_mean) / math.sqrt(oracle_var + ucb_var)
    gap2 = (random_mean - ucb_mean) / math.sqrt(ucb_var + random_var)
    ok = gap1 >= 2.0 and gap2 >= 2.0
    report("8 (policy ordering at 2 sigma)", ok,
           f"oracle {oracle_mean:.0f} < ucb {ucb_mean:.0f} < random "
           f"{random_mean:.0f}; z-gaps {gap1:.1f}, {gap2:.1f}")
    assert ok


def test_criterion_9_lower_bound_scaling():
    horizons = [10**3, 10**4, 10**5, 10**6]
    values = [tuned_minimax_lower_bound(T, 10, 0.5)[1] for T in horizons]
    slope = float(np.polyfit(np.log(horizons), np.log(values), 1)[0])
    taus = [0.1, 0.3, 0.5, 0.7, 0.9]
    tuned = [tuned_minimax_lower_bound(10**5, 10, tau)[1] for tau in taus]
    monotone = all(b < a for a, b in zip(tuned, tuned[1:]))
    ok = abs(slope - 0.5) <= 0.05 and monotone
    report("9 (lower bound scaling)", ok,
           f"log-log slope {slope:.3f}; decreasing in tau: {monotone}")
    assert ok


def test_criterion_10_divergence_quadratic_bound():
    taus = np.linspace(0.98 / 50, 0.98, 50)
    gaps = np.linspace(0.125 / 50, 0.125, 50)
    worst_slack = -np.inf
    for tau in taus:
        for gap in gaps:
            lhs = bernoulli_kl(tau / 2, tau * (0.5 + 2 * gap))
            worst_slack = max(worst_slack, lhs - 32 * tau * gap**2)
    ok = worst_slack <= 1e-12
    report("10 (divergence quadratic bound on 50x50 grid)", ok,
           f"max violation {worst_slack:.3e}")
    assert ok


def test_criterion_11_byte_identical_outputs(tmp_path):
    config = ExperimentConfig(d=3, K=4, T=60, delay="geometric", delay_mean=6.0,
                              m=12, n_runs=4, base_seed=31)
    payloads = []
    for variant in (replace(config, n_jobs=1), replace(config, n_jobs=1),
                    replace(config, n_jobs=2)):
        traces, _ = run_batch(variant)
        path = tmp_path / f"traces_{len(payloads)}.csv"
        write_traces_csv(traces, path)
        payloads.append(path.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    report("11 (deterministic byte-identical CSVs)", ok,
           f"serial x2 and parallel outputs of {len(payloads[0])} bytes match")
    assert ok

"""Acceptance suite: every criterion as one test, named as its pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the measured numbers
behind each verdict. The whole module takes about 27 s on a 2-vCPU host;
master seed 1 is frozen so reruns are bit-identical.
"""

import numpy as np
import pytest

from ulmimo import asymptotic as la
from ulmimo import montecarlo as mc
from ulmimo.experiments import (five_percentile, monte_carlo_sweep, rate_table,
                                sum_rate)
from ulmimo.fading import FadingDistribution
from ulmimo.geometry import idealized_gains
from ulmimo.rng import complex_gaussian, seed_substream
from ulmimo.scenario import parse_scenario

SEED = 1


@pytest.fixture(scope="module")
def cost231():
    return parse_scenario("cost231-7cell")


@pytest.fixture(scope="module")
def drop_rows(cost231):
    rng = seed_substream(SEED, "drops")
    return cost231.gain_matrix(10_000, rng).T


@pytest.fixture(scope="module")
def drop_dist(drop_rows):
    return FadingDistribution(drop_rows)


def report(line):
    print(f"\n{line}")


def test_criterion_01_mmse_gain_over_mf_6_to_8_db():
    mf, pilot, _ = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.5, 0.01)
    gap = la.to_db(pilot[0]) - la.to_db(mf[0])
    ok = 6.0 <= gap <= 8.0
    report(f"criterion 1: MMSE-over-MF gain {gap:.2f} dB, band [6, 8] -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_02_contamination_loss_2_to_4_db():
    _, pilot, perfect = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.5, 0.01)
    gap = la.to_db(perfect[0]) - la.to_db(pilot[0])
    ok = 2.0 <= gap <= 4.0
    report(f"criterion 2: perfect-over-pilot gap {gap:.2f} dB, band [2, 4] -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_03_strong_interference_regime():
    mf, pilot, perfect = la.det_eq_sinr_rows(idealized_gains(7, 0.1), 0.5, 0.01)
    pilot_db = la.to_db(pilot[0])
    gap = la.to_db(perfect[0]) - pilot_db
    mf_closeness = abs(pilot_db - la.to_db(mf[0]))
    ok = 3.0 <= gap <= 5.0 and mf_closeness <= 1.5
    report(f"criterion 3: perfect-over-pilot {gap:.2f} dB in [3, 5]; "
           f"|MMSE-MF| {mf_closeness:.2f} dB <= 1.5 -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_04_sum_rate_peak():
    dist = idealized_gains(7, 0.01)
    grid = [round(0.05 * i, 2) for i in range(1, 25)]  # (0, 1.2]
    rates = []
    for a in grid:
        _, pilot, _ = la.det_eq_sinr_rows(dist, a, 0.01)
        rates.append(sum_rate(a, 50, pilot[0]))
    at_08 = rates[grid.index(0.8)]
    peak = int(np.argmax(rates))
    ok = 83.0 <= at_08 <= 93.0 and 0 < peak < len(rates) - 1
    report(f"criterion 4: sum rate at alpha=0.8 is {at_08:.1f} bits/symbol in "
           f"[83, 93], peak interior at alpha={grid[peak]} -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_05_theory_simulation_agreement():
    sc = parse_scenario("idealized-01")
    dist = idealized_gains(7, 0.01)
    alphas = (0.2, 0.5, 1.0)
    theory = {}
    for a in alphas:
        theory[a] = {f: la.to_db(x[0]) for f, x in zip(
            ("mf", "mmse", "mmse-perfect"), la.det_eq_sinr_rows(dist, a, 0.01))}
    worst = 0.0
    ok = True
    for mode in ("noiseless", "noisy", "training"):
        samples = monte_carlo_sweep(sc, 50, list(alphas), 500,
                                    ("mf", "mmse", "mmse-perfect"), mode, SEED)
        for a in alphas:
            for f, th in theory[a].items():
                gap = abs(la.to_db(np.median(samples[(a, f)])) - th)
                worst = max(worst, gap)
                if gap > 0.5:
                    ok = False
                    report(f"criterion 5: {mode}/{f}/alpha={a} off by "
                           f"{gap:.3f} dB")
    report(f"criterion 5: worst |median - limit| {worst:.3f} dB <= 0.5 over "
           f"27 combinations -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_06_rate_table_reproduction(cost231):
    res = rate_table(cost231, None, [0.1, 0.5, 1.0], None, None, SEED)
    targets = {0.1: (4.7, 6.0), 0.5: (2.7, 3.4), 1.0: (1.9, 2.2)}
    ok = True
    for a, pilot, perfect in res.rows:
        t_pilot, t_perfect = targets[a]
        ok &= abs(pilot - t_pilot) <= 0.5
        ok &= abs(perfect - t_perfect) <= 0.5
        ok &= perfect > pilot
        report(f"criterion 6: alpha={a}: R_pilot {pilot:.2f} (target "
               f"{t_pilot}+-0.5), R_perfect {perfect:.2f} (target "
               f"{t_perfect}+-0.5)")
    report(f"criterion 6: rate table within +-0.5 bits/symbol, ordering kept "
           f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_07_five_percentile_anchors(cost231):
    alphas = (0.2, 0.5, 1.0)
    samples = monte_carlo_sweep(cost231, 50, list(alphas), 2000,
                                ("mmse", "mmse-perfect"), "noiseless", SEED)
    five = {(a, f): la.to_db(five_percentile(samples[(a, f)]))
            for a in alphas for f in ("mmse", "mmse-perfect")}
    anchor = five[(1.0, "mmse")]
    anchor_ok = -11.0 <= anchor <= -7.0
    report(f"criterion 7: five-percentile MMSE-pilot at alpha=1: "
           f"{anchor:.2f} dB, band [-11, -7] -> "
           f"{'PASS' if anchor_ok else 'FAIL'}")
    gaps_ok = True
    for a in alphas:
        gap = five[(a, "mmse-perfect")] - five[(a, "mmse")]
        this_ok = gap <= 6.0
        gaps_ok &= this_ok
        report(f"criterion 7: alpha={a}: perfect-minus-pilot five-percentile "
               f"gap {gap:.2f} dB <= 6 -> {'PASS' if this_ok else 'FAIL'}")
    assert anchor_ok and gaps_ok


def test_criterion_08_suppression_constants(cost231, drop_dist):
    det = la.solve_det_eq(drop_dist, 1.0, cost231.noise_var)
    c_star = la.perfect_suppression(drop_dist, 1.0, cost231.noise_var)
    pilot_db = la.to_db(det.mean_total_gain - det.suppression)
    perfect_db = la.to_db(det.mean_total_gain - c_star)
    ok = (35.0 <= pilot_db <= 41.0 and 33.0 <= perfect_db <= 39.0
          and pilot_db >= perfect_db - 3.0)
    report(f"criterion 8: residual interference {pilot_db:.2f} dB in [35, 41];"
           f" perfect-filter counterpart {perfect_db:.2f} dB in [33, 39] -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


# --- criterion 9: the always-runnable property suite --------------------


def test_criterion_09a_fixed_point_residuals(drop_dist):
    worst = 0.0
    for dist in [idealized_gains(7, b) for b in (0.001, 0.01, 0.1)] + [drop_dist]:
        for alpha in (0.0, 0.25, 0.5, 1.0):
            eta1 = la.solve_det_eq(dist, alpha, 0.01).eta1
            worst = max(worst, abs(la.eta1_map(dist, alpha, 0.01, eta1) - eta1)
                        / eta1)
            eta1s = la.solve_eta1_perfect(dist, alpha, 0.01)
            worst = max(worst, abs(la.eta1_perfect_map(dist, alpha, 0.01, eta1s)
                                   - eta1s) / eta1s)
    report(f"criterion 9a: worst fixed-point residual {worst:.2e} <= 1e-10 -> "
           f"{'PASS' if worst <= 1e-10 else 'FAIL'}")
    assert worst <= 1e-10


def test_criterion_09b_eta_ordering_and_suppression_bounds(drop_dist):
    ok = True
    for dist in [idealized_gains(7, b) for b in (0.001, 0.01, 0.1)] + [drop_dist]:
        e_total = dist.expect(dist.total)
        for alpha in (0.0, 0.5, 1.0):
            det = la.solve_det_eq(dist, alpha, 0.01)
            ok &= det.eta2 >= det.eta1**2
            ok &= 0.0 <= det.suppression <= e_total
    report(f"criterion 9b: eta2 >= eta1^2 and 0 <= C <= E[B] -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_09c_alpha_zero_collapse():
    mf, pilot, _ = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.0, 0.01)
    same = pilot[0] == mf[0]
    report(f"criterion 9c: alpha=0 collapse MF == MMSE-pilot exactly -> "
           f"{'PASS' if same else 'FAIL'}")
    assert same


def test_criterion_09d_single_cell_estimate_exactness():
    _, pilot, perfect = la.det_eq_sinr_rows(idealized_gains(1, 0.5), 0.5, 0.01)
    rel = abs(pilot[0] - perfect[0]) / perfect[0]
    report(f"criterion 9d: single-cell pilot vs perfect relative gap "
           f"{rel:.2e} -> {'PASS' if rel <= 1e-10 else 'FAIL'}")
    assert rel <= 1e-10


def test_criterion_09e_oracle_route_agreement(drop_dist, point_mass_root):
    # point masses against the closed-form root; the drop law, which has
    # none, against a 200-step bisection of x - eta1_map(x) on (0, 1/noise]
    worst = 0.0
    for dist, noise_var in [(idealized_gains(7, 0.01), 0.01), (drop_dist, 1.0)]:
        for alpha in (0.25, 1.0):
            eta1 = la.solve_det_eq(dist, alpha, noise_var).eta1
            if dist.num_samples == 1:
                oracle, _ = point_mass_root(dist, alpha, noise_var)
            else:
                lo, hi = 0.0, 1.0 / noise_var
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if la.eta1_map(dist, alpha, noise_var, mid) > mid:
                        lo = mid
                    else:
                        hi = mid
                oracle = 0.5 * (lo + hi)
            worst = max(worst, abs(oracle - eta1) / eta1)
    report(f"criterion 9e: oracle-route vs solved eta1, worst relative "
           f"difference {worst:.2e} <= 1e-8 -> "
           f"{'PASS' if worst <= 1e-8 else 'FAIL'}")
    assert worst <= 1e-8


def test_criterion_09f_trace_lemma_concentration(trace_lemma_draws):
    # stated constants: M=1024, 5% band, >= 95% of trials. The band is
    # ~1.6 standard deviations of the quadratic-form estimator (its
    # fluctuation floor is 1/sqrt(M) ~= 3.1%), so the per-trial hit rate
    # tops out near 89%: the criterion as stated is unattainable. Kept
    # faithful rather than widened; see the decisions ledger.
    trials = len(trace_lemma_draws)
    hits = sum(abs(quad - mean) < 0.05 * mean
               for quad, mean in trace_lemma_draws)
    frac = hits / trials
    report(f"criterion 9f: trace-lemma concentration at M=1024: {hits}/{trials}"
           f" trials inside the 5% band ({frac:.0%}, need >= 95%) -> "
           f"{'PASS' if frac >= 0.95 else 'FAIL'}")
    assert frac >= 0.95


def test_criterion_09g_channel_gram_identity():
    M, trials = 2048, 60
    rng = seed_substream(SEED, "acc.gram")
    hits = 0
    for _ in range(trials):
        H1 = complex_gaussian(rng, (7, M), 1.0 / M)
        hits += np.max(np.abs(H1 @ H1.conj().T - np.eye(7))) < 0.1
    frac = hits / trials
    report(f"criterion 9g: H1^H H1 -> I at M=2048: {hits}/{trials} inside the "
           f"0.1 band -> {'PASS' if frac >= 0.95 else 'FAIL'}")
    assert frac >= 0.95


def test_criterion_09h_dense_vs_structured_solver():
    rng = seed_substream(SEED, "acc.solver")
    real = mc.ChannelRealization(
        small_scale=mc.draw_channel_matrix(7, 2, 3, rng),
        gains=np.vstack([[1.0, 0.8], np.full((6, 2), 0.01)]), noise_var=0.01)
    est = mc.pilot_estimate_noiseless(real)
    lr = mc.mmse_filter_pilot(est, real)  # one interferer: low-rank path
    # the dense system from its definition: theta1 = sum_{j>=2,k} beta_jk / M,
    # theta2 = sum_k beta_1k s_k / M with s_k the noiseless error variance
    other = real.gains[1:].sum(axis=0)
    theta1 = other.sum() / 3
    theta2 = (real.gains[0] * other / real.gains.sum(axis=0)).sum() / 3
    h2 = est.estimates[1]
    S = (real.gains[0, 1] * np.outer(h2, h2.conj())
         + (theta1 + theta2 + real.noise_var) * np.eye(3))
    de = np.linalg.solve(S, np.sqrt(real.gains[0, 0]) * est.estimates[0])
    rel = np.linalg.norm(lr - de) / np.linalg.norm(de)
    report(f"criterion 9h: structured vs dense filter solve at M=3, relative "
           f"difference {rel:.2e} <= 1e-12 -> "
           f"{'PASS' if rel <= 1e-12 else 'FAIL'}")
    assert rel <= 1e-12


def test_criterion_09i_power_decomposition_completeness():
    rng = seed_substream(SEED, "acc.power")
    real = mc.ChannelRealization(
        small_scale=mc.draw_channel_matrix(7, 6, 24, rng),
        gains=np.vstack([np.ones((1, 6)), np.full((6, 6), 0.01)]),
        noise_var=0.01)
    est = mc.pilot_estimate_noiseless(real)
    filt = mc.mmse_filter_pilot(est, real)
    out = mc.empirical_sinr(filt, real)
    cov = real.noise_var * np.eye(24, dtype=complex)
    for j in range(7):
        for k in range(6):
            hv = real.small_scale[j, k]
            cov += real.gains[j, k] * np.outer(hv, hv.conj())
    quad = float((filt.conj() @ cov @ filt).real)
    total = out.p_signal + out.p_noise + out.p_contam + out.p_inter
    rel = abs(total - quad) / quad
    report(f"criterion 9i: power decomposition completeness, relative error "
           f"{rel:.2e} <= 1e-10 -> {'PASS' if rel <= 1e-10 else 'FAIL'}")
    assert rel <= 1e-10


def test_criterion_09j_byte_identical_reruns(tmp_path):
    from ulmimo import cli
    args = ["montecarlo", "--scenario", "idealized-01", "--seed", str(SEED),
            "--alpha", "0.5", "--antennas", "16", "--trials", "8"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(args + ["--out", str(out)]) == 0
        outs.append((out / "montecarlo.csv").read_bytes())
    same = outs[0] == outs[1]
    report(f"criterion 9j: identical seeds give byte-identical outputs -> "
           f"{'PASS' if same else 'FAIL'}")
    assert same

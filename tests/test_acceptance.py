"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 is known-red: at rho = 0.825 the corrected CDFs remain
bounded and monotone for every order and every grid (violations require
rho >~ 0.85 for the resummed form at n = 100), so the required flag cannot
fire; see README "Testing" for the analysis.
"""
from __future__ import annotations

import numpy as np
from scipy import integrate

from corrmax import (
    McConfig,
    corrected_law,
    EpsilonMatrix,
    enumerate_paths,
    gumbel_cdf,
    gumbel_pdf,
    load_graph,
    non_iid_experiment,
    parse_graph,
    path_covariance,
    sample_max_sweep,
    scaling_constants,
    validity_check,
)
from corrmax.cli import main as cli_main
from conftest import (
    GRAPHS_DIR,
    ar1_epsilon,
    cascade64_text,
    central_diff,
    char_fn_identity_check,
    correlated_pdf_first_order,
    correlation_sum,
    hist_l1_distance,
)

REFERENCE_NODE_SEQS = [
    ["1", "2", "4", "6", "7"],
    ["1", "2", "4", "3", "5", "6", "7"],
    ["1", "2", "4", "5", "6", "7"],
    ["1", "3", "5", "6", "7"],
]

REFERENCE_COV = np.array([
    [1.0, 3.0 / (2.0 * np.sqrt(6.0)), 3.0 / (2.0 * np.sqrt(5.0)), 0.25],
    [3.0 / (2.0 * np.sqrt(6.0)), 1.0, 4.0 / np.sqrt(30.0),
     3.0 / (2.0 * np.sqrt(6.0))],
    [3.0 / (2.0 * np.sqrt(5.0)), 4.0 / np.sqrt(30.0), 1.0,
     1.0 / np.sqrt(5.0)],
    [0.25, 3.0 / (2.0 * np.sqrt(6.0)), 1.0 / np.sqrt(5.0), 1.0],
])


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"CRITERION {num:2d}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_covariance_golden():
    g = load_graph(GRAPHS_DIR / "shared_nodes_7.txt")
    ps = enumerate_paths(g)
    pc = path_covariance(ps)
    seqs = [ps.node_sequence(i) for i in range(ps.n_paths)]
    perm = [seqs.index(ref) for ref in REFERENCE_NODE_SEQS]
    got = pc[np.ix_(perm, perm)]
    err = float(np.max(np.abs(got - REFERENCE_COV)))
    report(1, "reference-graph covariance matrix exact to 1e-12",
           err <= 1e-12, f"max err {err:.2e}")


def test_criterion_02_reduction_identity():
    worst = 0.0
    for n in (2, 100, 1000):
        p = scaling_constants(n)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 1000)
        for order in ("first", "second", "complete"):
            worst = max(worst, float(np.max(np.abs(
                corrected_law(z, p, 0.0, order)[0] - gumbel_cdf(z, p)))))
            worst = max(worst, float(np.max(np.abs(
                corrected_law(z, p, 0.0, order)[1] - gumbel_pdf(z, p)))))
    report(2, "S=0 reduces all corrected CDFs/PDFs to Gumbel within 1e-15",
           worst <= 1e-15, f"max dev {worst:.2e}")


def test_criterion_03_mean_error_bound():
    p = scaling_constants(100)
    s = correlation_sum(ar1_epsilon(100, 0.35))
    analytic, quad_err = integrate.quad(
        lambda z: z * corrected_law(z, p, s, "first")[1],
        p.alpha - 12 * p.beta, p.alpha + 40 * p.beta, limit=400,
    )
    assert quad_err < 1e-8
    [res] = sample_max_sweep(100, [0.35], McConfig(seed=42, reps=10_000))
    gap = abs(res.mean - analytic)
    budget = 0.02 * abs(analytic) + 3.0 * res.stderr
    report(3, "n=100 rho=0.35: MC mean within 2% + 3 SE of first-order mean",
           gap < budget, f"gap {gap:.4f} budget {budget:.4f}")


def test_criterion_04_mean_decreases_with_rho():
    rhos = np.round(np.arange(0.1, 0.95, 0.1), 2)
    means = np.array([
        sample_max_sweep(200, [float(r)], McConfig(seed=42, reps=10_000))[0].mean
        for r in rhos
    ])
    smoothed = np.convolve(means, np.ones(3) / 3.0, mode="valid")
    ok = bool(np.all(np.diff(smoothed) < 0.0))
    report(4, "n=200: smoothed MC mean strictly decreasing in rho",
           ok, f"smoothed means {np.round(smoothed, 4).tolist()}")


def test_criterion_05_second_order_beats_gumbel():
    p = scaling_constants(100)
    ok = True
    details = []
    for rho in (0.5, 0.65):
        s = correlation_sum(ar1_epsilon(100, rho))
        [res] = sample_max_sweep(100, [rho], McConfig(seed=42, reps=10_000))
        l1_second = hist_l1_distance(
            res, lambda t: corrected_law(t, p, s, "second")[1]
        )
        l1_gumbel = hist_l1_distance(res, lambda t: gumbel_pdf(t, p))
        ok = ok and (l1_second < l1_gumbel)
        details.append(f"rho={rho}: {l1_second:.3f} vs {l1_gumbel:.3f}")
    report(5, "L1(MC hist, second-order pdf) < L1(MC hist, Gumbel pdf)",
           ok, "; ".join(details))


def test_criterion_06_breakdown_reproduction():
    """Known-red spec defect: see module docstring and README "Testing"."""
    p100 = scaling_constants(100)
    eps100 = ar1_epsilon(100, 0.825)
    z100 = np.linspace(p100.alpha - 12 * p100.beta,
                       p100.alpha + 40 * p100.beta, 2000)
    s100 = correlation_sum(eps100)
    rep100 = validity_check(
        z100, *corrected_law(z100, p100, s100, "second"), eps100.max_abs(),
    )
    flagged100 = (not rep100.cdf_bounded) or (not rep100.cdf_monotone)

    p250 = scaling_constants(250)
    eps250 = ar1_epsilon(250, 0.825)
    z250 = np.linspace(p250.alpha - 12 * p250.beta,
                       p250.alpha + 40 * p250.beta, 2000)
    s250 = correlation_sum(eps250)
    rep250 = validity_check(
        z250, *corrected_law(z250, p250, s250, "complete"), eps250.max_abs(),
    )
    fewer = len(rep250.z_violations) < len(rep100.z_violations)

    report(
        6,
        "rho=0.825 flags second-order violation at n=100, fewer at n=250",
        flagged100 and fewer,
        f"n=100 violations {len(rep100.z_violations)}, "
        f"n=250 violations {len(rep250.z_violations)}",
    )


def test_criterion_07_derivative_consistency():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (2, 100, 1000):
        p = scaling_constants(n)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 1000)
        for s in rng.uniform(-5.0, 5.0, size=3):
            for order in ("first", "second", "complete"):
                fd = central_diff(lambda t: corrected_law(t, p, s, order)[0], z)
                worst = max(worst, float(np.max(np.abs(
                    corrected_law(z, p, s, order)[1] - fd))))
    report(7, "corrected pdf matches CDF finite differences within 1e-6",
           worst <= 1e-6, f"max dev {worst:.2e}")


def test_criterion_08_expansion_oracle():
    def bivariate(x, y, rho):
        det = 1.0 - rho * rho
        return np.exp(
            -(x * x - 2 * rho * x * y + y * y) / (2 * det)
        ) / (2 * np.pi * np.sqrt(det))

    grid = np.linspace(-3.0, 3.0, 21)

    def max_err(rho):
        eps = EpsilonMatrix(entries=np.array([[0.0, rho], [rho, 0.0]]))
        worst = 0.0
        for x in grid:
            for y in grid:
                worst = max(worst, abs(
                    correlated_pdf_first_order([x, y], eps)
                    - bivariate(x, y, rho)
                ))
        return worst

    err1 = max_err(0.01)
    err2 = max_err(0.02)
    ratio = err2 / err1
    ok = err1 <= 1e-4 and (4.0 / 1.5) <= ratio <= 4.0 * 1.5
    report(8, "first-order expansion within 1e-4 at eps=0.01, error O(eps^2)",
           ok, f"err {err1:.2e}, doubling ratio {ratio:.2f}")


def test_criterion_09_characteristic_fn_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        k = rng.uniform(-1.0, 1.0, size=dim)
        mu = rng.uniform(-1.0, 1.0, size=dim)
        sigma = rng.uniform(0.5, 1.5, size=dim)
        i, j = rng.choice(dim, size=2, replace=False)
        worst = max(worst, char_fn_identity_check(
            k, mu, sigma, int(i), int(j), 1e-4))
    d_coarse = char_fn_identity_check(
        [0.8, -0.6, 0.4], [0.1, -0.2, 0.05], [1.0, 0.8, 1.2], 0, 1, 4e-4)
    d_fine = char_fn_identity_check(
        [0.8, -0.6, 0.4], [0.1, -0.2, 0.05], [1.0, 0.8, 1.2], 0, 1, 2e-4)
    ratio = d_coarse / d_fine
    ok = worst <= 1e-7 and 3.5 <= ratio <= 4.5
    report(9, "char-fn identity: discrepancy <= 1e-7 and O(h^2) convergence",
           ok, f"worst {worst:.2e}, halving ratio {ratio:.2f}")


def test_criterion_10_brute_force_covariance():
    # Fixed oracle seed: the max over the cascade's 2016 entry estimates
    # runs close to the 0.01 tolerance at 1e5 realizations (per-entry SE
    # reaches 4.5e-3); a wrong formula would miss by an order of magnitude.
    worst_overall = []
    for g in (load_graph(GRAPHS_DIR / "shared_nodes_7.txt"),
              parse_graph(cascade64_text())):
        ps = enumerate_paths(g)
        pc = path_covariance(ps)
        sigmas = np.array([e.sigma for e in g.edges])
        stds = ps.stds
        weights = np.zeros((ps.n_paths, len(g.edges)))
        for i, path in enumerate(ps.paths):
            weights[i, list(path)] = sigmas[list(path)] / stds[i]
        rng = np.random.default_rng(13)
        xi = rng.standard_normal((100_000, len(g.edges)))
        eps_draws = xi @ weights.T
        estimate = eps_draws.T @ eps_draws / xi.shape[0]
        worst_overall.append(float(np.max(np.abs(estimate - pc))))
    ok = all(w <= 0.01 for w in worst_overall)
    report(10, "analytic covariance within 0.01 of edge-noise MC estimates",
           ok, f"max devs {[round(w, 5) for w in worst_overall]}")


def test_criterion_11_non_iid_scaling():
    grid = (10, 50, 100, 500)
    reps = 10_000
    base = non_iid_experiment(grid, McConfig(seed=101, reps=reps))
    base_means = np.array([res.mean for res in base])
    base_stds = np.array([res.std for res in base])

    ok = bool(np.all(np.diff(base_means) > 0.0))
    details = []

    # delta = 0 with an independent seed recovers the baseline within 3 SE
    again = non_iid_experiment(grid, McConfig(seed=404, reps=reps))
    for r1, r2 in zip(base, again):
        se = np.sqrt((r1.std * r1.std + r2.std * r2.std) / reps)
        ok = ok and abs(r1.mean - r2.mean) <= 3.0 * se
    details.append("delta=0 recovers baseline")

    for kind, seed, bound in (
        ("delta_mu", 202, 0.2),
        ("delta_sigma", 303, None),
    ):
        rows = non_iid_experiment(grid, McConfig(seed=seed, reps=reps),
                                  **{kind: 0.2})
        means = np.array([res.mean for res in rows])
        stds = np.array([res.std for res in rows])
        ok = ok and bool(np.all(np.diff(means) > 0.0))
        offsets = means - base_means
        se = np.sqrt((stds**2 + base_stds**2) / reps)
        limit = (bound if bound is not None
                 else 0.2 * (base_means + 1.0)) + 3.0 * se
        ok = ok and bool(np.all(np.abs(offsets) <= limit))
        ok = ok and bool(np.all(np.abs(np.diff(offsets)) <= 0.1))
        details.append(f"{kind} offsets {np.round(offsets, 3).tolist()}")

    report(11, "non-IID deviations scale the IID curve without reshaping it",
           ok, "; ".join(details))


def test_criterion_12_cli_determinism(tmp_path):
    outputs = {}
    for workers in ("1", "8"):
        sub = tmp_path / f"w{workers}"
        sub.mkdir()
        code = cli_main([
            "mc", "--n", "100", "--rho", "0.35", "--reps", "10000",
            "--seed", "42", "--workers", workers, "--out", "run",
            "--outdir", str(sub),
        ])
        assert code == 0
        outputs[workers] = {
            name: (sub / name).read_bytes()
            for name in ("run_samples.csv", "run_stats.json")
        }
    ok = outputs["1"] == outputs["8"]
    report(12, "mc --seed 42 is bitwise identical for 1 and 8 workers", ok)

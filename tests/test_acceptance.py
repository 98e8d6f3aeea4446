"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one `[acceptance] criterion NN: PASS/FAIL` line (visible
with ``pytest -s`` or in captured output).

Criterion 3 checks the published table of decentralization composites.  The
table prints every component and every composite rounded to four decimals,
so each carries up to half a unit (5e-5) of rounding.  The exact mean of five
printed components therefore lies within 5e-5 of the mean of the unrounded
components, which in turn lies within 5e-5 of the printed composite.  A
composite is consistent with its row when it is within 5e-5 + 5e-5 of the
exact mean of the printed components.  Three rows (OKB, RAY, DOT) sit 6e-5
away: more than the 4e-5 that rounding the printed components' mean could
give (that mean is a multiple of 2e-5), so their composites were rounded
from unrounded components, which the table does not print.
"""

import math
import os
import time
from decimal import Decimal, getcontext
from itertools import combinations

import numpy as np
import pytest

from panelcrypt import decentralization as dec
from panelcrypt import metrics as mx
from panelcrypt import pipeline
from panelcrypt.cli import main
from panelcrypt.diagnostics import cips, dependence_tests, describe, truncate_cadf
from panelcrypt.estimators import (
    CrossSectionEGLS,
    FixedEffects,
    ModelSpec,
    chi2_survival,
    long_run_effect,
)
from panelcrypt.quantreg import (
    check_loss,
    fit_quantile_coefficients,
    quasi_lr,
    sandwich_cov,
    sparsity_hall_sheather,
    PanelQuantile,
)
from panelcrypt.refdata import BENCHMARK_UNIVERSE

from test_estimators import lsdv_oracle, random_panel
from test_quantreg import pooled_design


def emit(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:02d}: {status} {detail}".rstrip())
    assert passed, f"criterion {criterion:02d} failed: {detail}"


def test_c01_parkinson_closed_form():
    getcontext().prec = 50
    root = (Decimal(2) * Decimal(2).ln()).sqrt()
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        low = rng.uniform(0.01, 1000.0)
        high = low * (1.0 + rng.uniform(0.0, 2.0))
        close = rng.uniform(low, high)
        value = mx.parkinson(high, low, close)
        oracle = (Decimal(high) - Decimal(low)) / (Decimal(close) * root)
        rel = abs(Decimal(value) - oracle) / oracle if oracle != 0 else Decimal(0)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    zero_range = mx.parkinson(123.45, 123.45, 123.45)
    emit(
        1,
        worst <= 1e-12 and zero_range == 0.0 and elapsed < 1.0,
        f"(worst rel {worst:.2e}, {elapsed:.2f}s)",
    )


def test_c02_gini_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 13))
        x = rng.uniform(0.0, 10.0, size=n)
        if x.sum() <= 0:
            continue
        checked += 1
        pairwise = float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))
        worst = max(worst, abs(dec.gini(x) - pairwise))
    exact = dec.gini([0.0, 0.0, 0.0, 1.0])
    emit(2, worst <= 1e-12 and exact == 0.75, f"(worst abs {worst:.2e})")


# Half a unit in the fourth decimal: the rounding carried by a published
# composite, and by the mean of five published components.
COMPOSITE_HALF_UNIT = Decimal("0.00005")
COMPONENT_MEAN_HALF_UNIT = Decimal("0.00005")


def exact_mean(components):
    """Mean of the printed decimal components, exact in `Decimal`."""
    return sum(Decimal(str(c)) for c in components) / len(components)


def composite_gap(components, published):
    return abs(exact_mean(components) - Decimal(str(published)))


def table_consistent(components, published):
    """Whether `published` is the four-decimal rounding of the mean of some
    unrounded components that each lie within half a unit of the printed ones."""
    return composite_gap(components, published) <= (COMPOSITE_HALF_UNIT
                                                    + COMPONENT_MEAN_HALF_UNIT)


def accepted_slips(components, published):
    """Perturbed versions of a row that `table_consistent` wrongly accepts.

    A third-decimal slip in one component, or a 2e-4 slip in the composite,
    moves the gap by 2e-4; every published gap is at most 6e-5, so each
    perturbed row is at least 1.4e-4 off and must be rejected.
    """
    printed = [Decimal(str(c)) for c in components]
    composite = Decimal(str(published))
    accepted = []
    for delta in (Decimal("0.001"), Decimal("-0.001")):
        for i in range(len(printed)):
            moved = printed[:i] + [printed[i] + delta] + printed[i + 1:]
            if table_consistent(moved, composite):
                accepted.append(f"component {i} {delta:+}")
    for delta in (Decimal("0.0002"), Decimal("-0.0002")):
        if table_consistent(printed, composite + delta):
            accepted.append(f"composite {delta:+}")
    return accepted


def test_c03_composite_table_reproduction():
    published = {
        "BTC": 0.5493, "ETH": 0.7073, "SOL": 0.6454, "XRP": 0.6671, "ADA": 0.6201,
        "BNB": 0.6923, "CRO": 0.7304, "OKB": 0.6929, "XLM": 0.7710, "UNI": 0.5648,
        "RUNE": 0.5888, "RAY": 0.6062, "GNO": 0.7305, "SNX": 0.7622, "AVAX": 0.6423,
        "LINK": 0.6748, "FTM": 0.7408, "DOT": 0.5241,
    }
    worst_program = Decimal(0)
    largest_gap = Decimal(0)
    failures = []
    for symbol, _category, _hyfi, _listing, components in BENCHMARK_UNIVERSE:
        mean = exact_mean(components)
        worst_program = max(worst_program,
                            abs(Decimal(dec.composite_index(components)) - mean))
        gap = composite_gap(components, published[symbol])
        largest_gap = max(largest_gap, gap)
        if not table_consistent(components, published[symbol]):
            failures.append(f"{symbol}: |{mean} - {published[symbol]}| = {gap}")
        failures += [f"{symbol}: bound accepts {slip}"
                     for slip in accepted_slips(components, published[symbol])]
    if worst_program > Decimal("1e-12"):
        failures.append(f"composite_index off the exact mean by {float(worst_program):.1e}")
    emit(3, not failures,
         f"(program within {float(worst_program):.1e} of the exact mean; largest gap "
         f"{float(largest_gap):.1e} <= {COMPOSITE_HALF_UNIT} + {COMPONENT_MEAN_HALF_UNIT})"
         if not failures else "(" + "; ".join(failures) + ")")


def test_c04_fixed_effects_equals_lsdv():
    rng = np.random.default_rng(104)
    worst = 0.0
    exact = 0
    for _ in range(200):
        n_entities = int(rng.integers(2, 6))
        t = int(rng.integers(2, 9))
        k = int(rng.integers(1, 3))
        design, _ = random_panel(rng, n_entities, t, beta=rng.normal(size=k),
                                 unbalanced=True)
        if design.nobs - k - n_entities == 0:
            # an exact fit has no residual degrees of freedom, and is refused
            with pytest.raises(ValueError, match="no residual degrees of freedom"):
                FixedEffects().fit(design)
            exact += 1
            continue
        fe = FixedEffects().fit(design).result_
        worst = max(worst, float(np.max(np.abs(fe.params - lsdv_oracle(design)))))
    emit(4, worst <= 1e-8,
         f"(worst abs {worst:.2e} over {200 - exact} panels; {exact} exact fits refused)")


def test_c05_coefficient_recovery_and_egls_efficiency():
    start = time.perf_counter()
    params = pipeline.SynthParams()          # benchmark calibration, N=18, 1790 days
    spec_plain = ModelSpec(effects="fixed", weights="none",
                           regressors=list(pipeline.CONTROLS),
                           interactions=[("hyfi", "market_volatility")])
    reps = 50
    names = None
    plain_draws, weighted_draws = [], []
    for seed in range(reps):
        sim = pipeline.simulate_dgp(params, seed=seed)
        design, _ = pipeline.build_design(sim.metas, sim.bundle, spec_plain)
        plain = FixedEffects().fit(design).result_
        weighted = CrossSectionEGLS(effects="fixed").fit(design).result_
        names = plain.columns
        plain_draws.append(plain.params)
        weighted_draws.append(weighted.params)
    plain_draws = np.vstack(plain_draws)
    weighted_draws = np.vstack(weighted_draws)
    truth = pipeline.default_truth()
    truth["hyfi_x_market_volatility"] = truth["hyfi_x_market_volatility"]
    target = np.array([truth[name] for name in names])

    def deviations(draws):
        mc_se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        return np.abs(draws.mean(axis=0) - target) / mc_se

    dev_plain = deviations(plain_draws)
    dev_weighted = deviations(weighted_draws)
    efficiency = weighted_draws.var(axis=0, ddof=1).sum() < plain_draws.var(
        axis=0, ddof=1
    ).sum()
    elapsed = time.perf_counter() - start
    ok = (
        bool(np.all(dev_plain <= 3.0))
        and bool(np.all(dev_weighted <= 3.0))
        and efficiency
        and elapsed < 120.0
    )
    emit(
        5,
        ok,
        f"(max |mean-truth|/MCSE plain {dev_plain.max():.2f},"
        f" weighted {dev_weighted.max():.2f}, EGLS var ratio"
        f" {weighted_draws.var(axis=0).sum() / plain_draws.var(axis=0).sum():.3f},"
        f" {elapsed:.0f}s)",
    )


def test_c06_dynamic_arithmetic():
    lr_int = long_run_effect(-0.2778, 0.2918)
    lr_mv = long_run_effect(0.3728, 0.2918)
    additive = Decimal("0.3728") - Decimal("0.2778") == Decimal("0.0950")
    ok = abs(lr_int - (-0.3923)) <= 5e-4 and abs(lr_mv - 0.5264) <= 5e-4 and additive
    emit(6, ok, f"(lr_int {lr_int:.4f}, lr_mv {lr_mv:.4f})")


def test_c07_chi_square_tail():
    p = chi2_survival(6.4912, 6)
    emit(7, abs(p - 0.3705) <= 5e-4, f"(p {p:.5f})")


def test_c08_quantile_solver_optimality():
    rng = np.random.default_rng(108)
    worst_excess = 0.0
    for _ in range(500):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(1, 4))
        while n <= k:
            n = int(rng.integers(6, 31))
        X = rng.normal(size=(n, k))
        X[:, 0] = 1.0
        y = X @ rng.normal(size=k) + rng.standard_t(3, size=n)
        tau = float(rng.uniform(0.05, 0.95))
        beta, _ = fit_quantile_coefficients(X, y, tau)
        achieved = check_loss(y - X @ beta, tau)
        best = np.inf
        subsets = np.array(list(combinations(range(n), k)))
        blocks = X[subsets]
        targets = y[subsets]
        try:
            candidates = np.linalg.solve(blocks, targets[..., None])[..., 0]
        except np.linalg.LinAlgError:
            candidates = []
            for rows in subsets:
                try:
                    candidates.append(np.linalg.solve(X[rows], y[rows]))
                except np.linalg.LinAlgError:
                    continue
            candidates = np.asarray(candidates)
        residuals = y[None, :] - candidates @ X.T
        losses = np.sum(residuals * (tau - (residuals < 0)), axis=1)
        best = float(losses.min())
        worst_excess = max(worst_excess, achieved - best)

    midpoint_ok = True
    rng2 = np.random.default_rng(109)
    for n in range(2, 13):
        for _ in range(20):
            y = np.sort(rng2.normal(size=n))
            beta, _ = fit_quantile_coefficients(np.ones((n, 1)), y, 0.5)
            expected = (0.5 * (y[n // 2 - 1] + y[n // 2])) if n % 2 == 0 else y[n // 2]
            midpoint_ok &= beta[0] == pytest.approx(expected, abs=1e-12)
    emit(8, worst_excess <= 1e-8 and midpoint_ok,
         f"(worst excess loss {worst_excess:.2e})")


def test_c09_quantile_inference_battery():
    rng = np.random.default_rng(110)
    u = rng.normal(size=700)
    s1, _, _ = sparsity_hall_sheather(u, 0.35)
    s2, _, _ = sparsity_hall_sheather(3.7 * u, 0.35)
    homogeneity = abs(s2 - 3.7 * s1) <= 1e-10 * max(1.0, abs(3.7 * s1))

    ses = {}
    reps = 20
    for n in (200, 800, 3200):
        draws = np.empty(reps)
        for r in range(reps):
            X = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
            beta, _ = fit_quantile_coefficients(X, y, 0.5)
            cov = sandwich_cov(X, y - X @ beta, 0.5)
            draws[r] = math.sqrt(cov[1, 1])
        ses[n] = draws.mean()
    rate_ok = (abs(ses[200] / ses[800] - 2.0) <= 0.30
               and abs(ses[800] / ses[3200] - 2.0) <= 0.30)

    size_rng = np.random.default_rng(0)
    reps = 500
    n = 800
    rejections = 0
    for _ in range(reps):
        x = size_rng.normal(size=n)
        z = size_rng.normal(size=n)
        y = 0.5 + 1.0 * x + size_rng.normal(size=n)
        full = PanelQuantile(tau=0.5).fit(
            pooled_design(np.column_stack([np.ones(n), x, z]), y, ["const", "x", "z"])
        ).result_
        restricted = PanelQuantile(tau=0.5).fit(
            pooled_design(np.column_stack([np.ones(n), x]), y, ["const", "x"])
        ).result_
        _, p = quasi_lr(full, restricted)
        rejections += p < 0.05
    size = rejections / reps
    size_ok = abs(size - 0.05) <= 0.02
    emit(
        9,
        homogeneity and rate_ok and size_ok,
        f"(se ratios {ses[200] / ses[800]:.2f}/{ses[800] / ses[3200]:.2f},"
        f" quasi-LR size {size:.3f})",
    )


def test_c10_cips_truncation():
    rng = np.random.default_rng(111)
    draws = rng.uniform(-20.0, -6.19, size=200)
    truncation_ok = all(truncate_cadf(v) == -6.19 for v in draws)

    n, t = 4, 300
    data = np.empty((n, t))
    for i in range(n):
        e = rng.normal(size=t)
        y = np.empty(t)
        y[0] = e[0]
        for s in range(1, t):
            y[s] = 0.4 * y[s - 1] + e[s]
        data[i] = y + i * 0.3
    result = cips(data)
    mean_ok = abs(result.statistic - np.mean(list(result.cadf_stats.values()))) <= 1e-12

    anti = np.empty((3, 400))
    for i in range(3):
        e = rng.normal(size=400)
        y = np.empty(400)
        y[0] = e[0]
        for s in range(1, 400):
            y[s] = -0.9 * y[s - 1] + e[s]
        anti[i] = y
    bound = cips(anti, max_lag=0)
    bound_ok = bound.truncated_statistic == pytest.approx(-6.190, abs=1e-12)
    emit(10, truncation_ok and mean_ok and bound_ok,
         f"(truncated CIPS {bound.truncated_statistic:.3f})")


def test_c11_dependence_tests():
    rng = np.random.default_rng(112)
    t = 81
    base = rng.normal(size=t)
    results = {r.name: r for r in dependence_tests(np.vstack([base, base]))}
    cd_exact = abs(results["Pesaran-CD"].statistic - math.sqrt(t)) <= 1e-12 * math.sqrt(t)
    bp_exact = abs(results["BP-LM"].statistic - t) <= 1e-12 * t

    reps = 500
    rejections = 0
    for _ in range(reps):
        data = rng.normal(size=(18, 500))
        cd = [r for r in dependence_tests(data) if r.name == "Pesaran-CD"][0]
        rejections += cd.p_value < 0.05
    rate = rejections / reps
    emit(11, cd_exact and bp_exact and abs(rate - 0.05) <= 0.02,
         f"(CD size {rate:.3f})")


def test_c12_descriptive_moments():
    rng = np.random.default_rng(113)
    closed_ok = True
    for p_target in (0.1, 0.174, 0.3, 0.5, 0.7):
        n = 1000
        values = np.zeros(n)
        values[: int(round(p_target * n))] = 1.0
        rng.shuffle(values)
        row = describe(values)
        p = values.mean()
        q = 1.0 - p
        closed_ok &= abs(row.skewness - (1 - 2 * p) / math.sqrt(p * q)) <= 1e-10
        closed_ok &= abs(row.kurtosis - ((1 - 6 * p * q) / (p * q) + 3.0)) <= 1e-10
    p = 0.174
    q = 1.0 - p
    skew = (1 - 2 * p) / math.sqrt(p * q)
    kurt = (1 - 6 * p * q) / (p * q) + 3.0
    benchmark_ok = (abs(skew - 1.724) / 1.724 <= 5e-3
                    and abs(kurt - 3.972) / 3.972 <= 5e-3)
    emit(12, closed_ok and benchmark_ok, f"(skew {skew:.4f}, kurt {kurt:.4f})")


def test_c13_figure_data_identities(tmp_path):
    slope_non, slope_hyfi, phi = 0.3728, 0.0950, 0.2918
    rows = pipeline.figure4_rows(0.0350, slope_non, slope_hyfi, phi)
    beta_int = slope_hyfi - slope_non
    identity_ok = all(
        abs(row[3] - beta_int * row[0]) <= 1e-12
        and abs(row[6] - beta_int / (1.0 - phi) * row[0]) <= 1e-12
        for row in rows
    )

    figures = tmp_path / "figures"
    os.makedirs(figures)
    reference = pipeline.reference_figures()
    pipeline._write_csv(figures / "reference_fig6.csv", pipeline.FIG6_HEADER,
                        reference["fig6"])
    pipeline._write_csv(figures / "reference_fig7.csv", pipeline.FIG7_HEADER,
                        reference["fig7"])
    fig6 = (figures / "reference_fig6.csv").read_text().splitlines()
    path = [float(line.split(",")[2]) for line in fig6[1:]]
    fig6_ok = path == [-0.0074, -0.0092, -0.0118, -0.0141, -0.0167]
    fig7 = (figures / "reference_fig7.csv").read_text().splitlines()
    pair = [float(line.split(",")[1]) for line in fig7[1:]]
    fig7_ok = pair == [-0.3191, -0.2869]

    ref4 = reference["fig4"]
    ref_int = -0.2778
    ref_ok = all(
        abs(row[3] - ref_int * row[0]) <= 1e-12
        and abs(row[6] - ref_int / (1.0 - phi) * row[0]) <= 1e-12
        for row in ref4
    )
    emit(13, identity_ok and fig6_ok and fig7_ok and ref_ok,
         f"(fig6 path {path}, fig7 pair {pair})")


def test_c14_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--seed", "14", "--out", str(sim_dir)]) == 0

    out = tmp_path / "report"
    config = tmp_path / "report.cfg"
    config.write_text(
        f"metrics = {sim_dir / 'metrics.csv'}\n"
        f"meta = {sim_dir / 'meta.csv'}\n"
        f"out = {out}\n"
        "seed = 14\n"
        "split_date = 2022-05-07\n"
        "taus = 0.10,0.25,0.50,0.75,0.90\n"
    )

    def snapshot():
        files = {}
        for root, _dirs, names in os.walk(out):
            for name in sorted(names):
                path = os.path.join(root, name)
                files[os.path.relpath(path, out)] = open(path, "rb").read()
        return files

    assert main(["report", "--config", str(config)]) == 0
    first = snapshot()
    assert main(["report", "--config", str(config)]) == 0
    second = snapshot()
    elapsed = time.perf_counter() - start

    identical = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    has_reference = any("reference_fig6" in name for name in first)
    emit(
        14,
        identical and has_reference and elapsed < 300.0,
        f"({len(first)} files, {elapsed:.0f}s for simulate + two reports)",
    )

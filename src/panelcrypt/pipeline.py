"""Study orchestration: design-matrix assembly, the baseline/quantile/split
batteries, figure-data emission, synthetic data generation and report
bundling.

Every run is deterministic: a fixed seed and config produce byte-identical
output directories.  Jobs execute and merge in a fixed order.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from . import __version__
from . import decentralization as dec
from . import diagnostics as diag
from . import metrics as mx
from . import refdata
from .estimators import (
    COVARIANCES,
    WEIGHTS,
    DesignMatrix,
    FixedEffects,
    ModelSpec,
    RandomEffects,
    estimator_for,
    hausman,
    long_run_effect,
)
from .panel import (
    MARKET_SYMBOL,
    EntityMeta,
    PanelLoadError,
    load_panel_csv,
    parse_date,
    read_meta_csv,
)
from .quantreg import PanelQuantile

DAY = np.timedelta64(1, "D")

CONTROLS = (
    "decentralization",
    "attractiveness",
    "size",
    "illiquidity",
    "market_volatility",
    "market_shocks",
)
MARKET_METRICS = ("market_volatility", "market_shocks")
INTERACTION = ("hyfi", "market_volatility")

Z_STARS = ((2.5758293035489004, "***"), (1.959963984540054, "**"), (1.6448536269514722, "*"))


def stars(estimate, se):
    if se <= 0 or not math.isfinite(se):
        return ""
    z = abs(estimate / se)
    for threshold, marker in Z_STARS:
        if z > threshold:
            return marker
    return ""


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    panel: str = None              # consolidated panel CSV (raw OHLCV mode)
    metrics_file: str = None       # precomputed metrics CSV (synthetic mode)
    meta: str = None               # metadata CSV, required with metrics_file
    out: str = "report"
    seed: int = 0
    split_date: str = "2022-05-07"
    taus: tuple = (0.10, 0.25, 0.50, 0.75, 0.90)
    weights: str = "cross_section_egls"
    covariance: str = "white"
    volatility_window: int = 30
    standardize_figures: bool = True
    raw_volatility_in_fits: bool = True
    with_baseline: bool = True
    with_quantiles: bool = True
    with_split: bool = True
    with_diagnostics: bool = True
    with_reference_figures: bool = True

    def __post_init__(self):
        for tau in self.taus:
            if not 0.0 < tau < 1.0:
                raise ValueError(f"tau {tau} outside (0, 1)")
        if self.panel is None and (self.metrics_file is None or self.meta is None):
            raise ValueError("config needs either panel=, or metrics= plus meta=")
        if self.weights not in WEIGHTS:
            raise ValueError(f"weights must be one of {WEIGHTS}, got {self.weights!r}")
        if self.covariance not in COVARIANCES:
            raise ValueError(f"covariance must be one of {COVARIANCES}, got {self.covariance!r}")
        try:
            parse_date(self.split_date)
        except PanelLoadError as exc:
            raise ValueError(f"split_date: {exc}") from None


_CONFIG_KEYS = {
    "panel": ("panel", str),
    "metrics": ("metrics_file", str),
    "meta": ("meta", str),
    "out": ("out", str),
    "seed": ("seed", int),
    "split_date": ("split_date", "date"),
    "taus": ("taus", "floats"),
    "weights": ("weights", str),
    "covariance": ("covariance", str),
    "volatility_window": ("volatility_window", int),
    "standardize_figures": ("standardize_figures", "bool"),
    "raw_volatility_in_fits": ("raw_volatility_in_fits", "bool"),
    "with_baseline": ("with_baseline", "bool"),
    "with_quantiles": ("with_quantiles", "bool"),
    "with_split": ("with_split", "bool"),
    "with_diagnostics": ("with_diagnostics", "bool"),
    "with_reference_figures": ("with_reference_figures", "bool"),
}


def parse_config(path):
    """Flat key = value config file; '#' starts a comment."""
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            attr, kind = _CONFIG_KEYS[key]
            if kind is str:
                values[attr] = text
            elif kind == "date":
                try:
                    parse_date(text)
                except PanelLoadError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
                values[attr] = text
            elif kind is int:
                values[attr] = int(text)
            elif kind == "bool":
                if text.lower() not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(f"{path}:{lineno}: boolean expected, got {text!r}")
                values[attr] = text.lower() in ("true", "1", "yes")
            elif kind == "floats":
                values[attr] = tuple(float(t) for t in text.split(",") if t.strip())
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# metric bundle plumbing


def metrics_from_panel(panel, window=30):
    """Compute all metric series plus the orthogonalized decentralization
    regressor from a raw panel."""
    bundle = mx.compute_all_metrics(panel, window=window)
    add_decentralization_metric(bundle, panel.entities, panel)
    return bundle


def add_decentralization_metric(bundle, metas, panel):
    """Composite decentralization per token, purified against pooled ln(mcap)."""
    symbols, dec_vals, mcap_vals, slices = [], [], [], {}
    offset = 0
    for meta in metas:
        rec = panel.observations[meta.symbol]
        composite = dec.composite_index(meta.gini_components)
        n = len(rec)
        ok = ~rec.missing["mcap"]
        values = np.full(n, np.nan)
        values[ok] = np.log(rec.values["mcap"][ok])
        symbols.append(meta.symbol)
        dec_vals.append(np.full(n, composite))
        mcap_vals.append(values)
        slices[meta.symbol] = (offset, offset + n)
        offset += n
    pooled_dec = np.concatenate(dec_vals)
    pooled_log_mcap = np.concatenate(mcap_vals)
    residuals, res_missing = dec.orthogonalize(pooled_dec, pooled_log_mcap)
    for meta in metas:
        lo, hi = slices[meta.symbol]
        rec = panel.observations[meta.symbol]
        bundle[meta.symbol]["decentralization"] = mx.MetricSeries(
            meta.symbol,
            "decentralization",
            rec.dates,
            residuals[lo:hi],
            res_missing[lo:hi],
        )
    return bundle


def standardize_market_volatility(bundle):
    """Replace the market volatility series with its z-scored version."""
    series = bundle[MARKET_SYMBOL]["market_volatility"]
    z = mx.zscore_per_entity(series)
    z.name = "market_volatility"
    bundle[MARKET_SYMBOL]["market_volatility"] = z
    return bundle


def write_metrics_csv(bundle, path):
    """Sparse long-format metric file: entity,date,metric,value."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("entity", "date", "metric", "value"))
        for entity in sorted(bundle):
            for name in sorted(bundle[entity]):
                series = bundle[entity][name]
                for i in np.flatnonzero(~series.missing):
                    writer.writerow(
                        (entity, str(series.dates[i]), name, repr(float(series.values[i])))
                    )


def read_metrics_csv(path):
    """Load a metrics file back into a {entity: {name: MetricSeries}} bundle.

    A row without exactly four fields, an unparseable or non-finite value, an
    unparseable date and a repeated (entity, date, metric) raise
    ``PanelLoadError`` located as ``path:line``, the header being line 1.
    Entities and metrics keep the order of their first row.

    A row keeps only its float value and a day number shared with every row
    of the same date text, so each distinct date text is parsed once.  No line
    number is kept per row; the duplicate check runs per series after a
    stable sort on the date, and only that error path reads the file again
    for the lines (``_metric_rows``).
    """
    source = os.fspath(path)
    collected = {}  # (entity, metric) -> ([day], [value])
    days = {}  # date text -> day number
    isfinite = math.isfinite
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["entity", "date", "metric", "value"]:
            raise PanelLoadError("expected header entity,date,metric,value", source)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise PanelLoadError(
                    f"expected 4 fields entity,date,metric,value, got {len(row)}", source, lineno
                )
            entity, date_text, name, value_text = row
            try:
                value = float(value_text)
            except ValueError:
                raise PanelLoadError(
                    f"unparseable numeric {value_text!r}", source, lineno
                ) from None
            if not isfinite(value):
                raise PanelLoadError(f"non-finite value {value_text!r}", source, lineno)
            day = days.get(date_text)
            if day is None:
                day = days[date_text] = int(parse_date(date_text, source, lineno).view(np.int64))
            series = collected.get((entity, name))
            if series is None:
                series = collected[entity, name] = ([], [])
            series[0].append(day)
            series[1].append(value)
    # series are checked and built entity by entity, in first-row order
    by_entity = {}
    for (entity, name), series in collected.items():
        by_entity.setdefault(entity, {})[name] = series
    bundle = {}
    for entity, by_name in by_entity.items():
        bundle[entity] = {}
        for name, (series_days, series_values) in by_name.items():
            dates = np.array(series_days, dtype=np.int64).view("datetime64[D]")
            order = np.argsort(dates, kind="stable")
            dates = dates[order]
            repeats = np.flatnonzero(dates[1:] == dates[:-1])
            if len(repeats):
                day = dates[repeats[0]]
                first, again = _metric_rows(path, entity, name, day)[:2]
                raise PanelLoadError(
                    f"duplicate {name} row for {entity} on {day} (first at line {first})",
                    source,
                    again,
                )
            values = np.array(series_values, dtype=float)[order]
            bundle[entity][name] = mx.MetricSeries(
                entity, name, dates, values, np.zeros(len(values), dtype=bool)
            )
    return bundle


def _metric_rows(path, entity, name, day):
    """File lines of the metrics-file rows for one entity, metric and date.

    Only the error path reads the file a second time: keeping a line number
    per parsed row would cost as much memory as the values themselves.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [
            lineno
            for lineno, (row_entity, date_text, row_name, _) in enumerate(reader, start=2)
            if row_entity == entity and row_name == name and parse_date(date_text) == day
        ]


# ---------------------------------------------------------------------------
# design construction


@dataclass
class DropLedger:
    """Conservation record: rows_in = rows_used + sum(dropped.values())."""

    rows_in: int
    rows_used: int
    dropped: dict
    notes: list = field(default_factory=list)

    def conserved(self):
        return self.rows_in == self.rows_used + sum(self.dropped.values())


def _aligned(series, dates):
    """Align a metric series onto a target date vector; unmatched dates stay
    missing.  Fast path when the grids already coincide."""
    if len(series.dates) == len(dates) and np.array_equal(series.dates, dates):
        return series.values, series.missing
    idx = np.searchsorted(series.dates, dates)
    n = len(dates)
    values = np.full(n, np.nan)
    missing = np.ones(n, dtype=bool)
    in_range = (idx < len(series.dates))
    match = np.zeros(n, dtype=bool)
    match[in_range] = series.dates[idx[in_range]] == dates[in_range]
    take = idx[match]
    values[match] = series.values[take]
    missing[match] = series.missing[take]
    return values, missing


def _market_aligned(bundle, name, dates):
    return _aligned(bundle[MARKET_SYMBOL][name], dates)


def build_design(metas, bundle, spec, window=None, response="price_risk"):
    """Entity-day design matrix with interactions and gap-aware lags.

    Rows with any missing value are excluded and tallied by the first
    missing column in a fixed priority order; under fixed effects a
    requested HyFi main effect is absorbed (noted, not fitted).  A regressor
    or interaction name that the bundle does not carry for every entity
    raises ``ValueError`` listing the available names.
    """
    per_entity = [set(bundle[meta.symbol]) for meta in metas]
    market = set(MARKET_METRICS)
    available = {"hyfi"} | (market & set(bundle.get(MARKET_SYMBOL, ())))
    if per_entity:
        available |= set.intersection(*per_entity) - market
    for name in [*spec.regressors, *(n for pair in spec.interactions for n in pair)]:
        if name not in available:
            raise ValueError(
                f"model spec names unknown metric {name!r}; available: "
                + ", ".join(sorted(available))
            )
    regressors = list(spec.regressors)
    notes = []
    if spec.effects == "fixed" and "hyfi" in regressors:
        regressors.remove("hyfi")
        notes.append("hyfi main effect absorbed by entity effects")
    interaction_names = [f"{a}_x_{b}" for a, b in spec.interactions]
    lag_name = f"{response}_lag" if spec.dynamic else None

    columns = []
    if spec.effects != "fixed":
        columns.append("const")
    columns += regressors + interaction_names
    if lag_name:
        columns.append(lag_name)

    priority = [response] + ([lag_name] if lag_name else []) + regressors + interaction_names

    chunks = {name: [] for name in columns}
    responses, entities, dates_out = [], [], []
    dropped = {}
    rows_in = 0

    for meta in metas:
        per_entity = bundle[meta.symbol]
        resp = per_entity[response]
        dates = resp.dates
        keep_window = np.ones(len(dates), dtype=bool)
        if window is not None:
            start, end = window
            keep_window = (dates >= np.datetime64(start, "D")) & (
                dates <= np.datetime64(end, "D")
            )
        def resolve(name):
            if name == "hyfi":
                return (
                    np.full(len(dates), 1.0 if meta.hyfi else 0.0),
                    np.zeros(len(dates), dtype=bool),
                )
            if name in MARKET_METRICS:
                return _market_aligned(bundle, name, dates)
            return _aligned(per_entity[name], dates)

        values = {response: (resp.values, resp.missing)}
        for name in regressors:
            values[name] = resolve(name)
        for (a, b), name in zip(spec.interactions, interaction_names):
            left = values.get(a) or resolve(a)
            right = values.get(b) or resolve(b)
            values[name] = (left[0] * right[0], left[1] | right[1])
        if lag_name:
            values[lag_name] = mx.lagged(resp.values, resp.missing, dates)

        rows_in += int(keep_window.sum())
        complete = keep_window.copy()
        assigned = np.zeros(len(dates), dtype=bool)
        for name in priority:
            miss = values[name][1] & keep_window & ~assigned
            count = int(miss.sum())
            if count:
                dropped[f"missing_{name}"] = dropped.get(f"missing_{name}", 0) + count
                assigned |= miss
            complete &= ~values[name][1]

        if not complete.any():
            continue
        responses.append(resp.values[complete])
        entities.append(np.full(int(complete.sum()), meta.symbol, dtype=object))
        dates_out.append(dates[complete])
        for name in columns:
            if name == "const":
                chunks[name].append(np.ones(int(complete.sum())))
            else:
                chunks[name].append(values[name][0][complete])

    if not responses:
        raise ValueError("design matrix is empty after dropping incomplete rows")
    y = np.concatenate(responses)
    matrix = np.column_stack([np.concatenate(chunks[name]) for name in columns])
    design = DesignMatrix(
        response=y,
        matrix=matrix,
        columns=columns,
        entities=np.concatenate(entities),
        dates=np.concatenate(dates_out),
        response_name=response,
    )
    ledger = DropLedger(
        rows_in=rows_in,
        rows_used=design.nobs,
        dropped=dict(sorted(dropped.items())),
        notes=notes,
    )
    return design, ledger


# ---------------------------------------------------------------------------
# batteries


BASELINE_JOBS = ("static_random", "static_fixed", "dynamic_random", "dynamic_fixed")


def _baseline_specs(config):
    re_static = ModelSpec(
        effects="random",
        weights="none",
        dynamic=False,
        covariance=config.covariance,
        regressors=list(CONTROLS) + ["hyfi"],
    )
    fe_static = ModelSpec(
        effects="fixed",
        weights=config.weights,
        dynamic=False,
        covariance=config.covariance,
        regressors=list(CONTROLS),
        interactions=[INTERACTION],
    )
    return {
        "static_random": re_static,
        "static_fixed": fe_static,
        "dynamic_random": replace(re_static, dynamic=True),
        "dynamic_fixed": replace(fe_static, dynamic=True),
    }


@dataclass
class BaselineFragment:
    fits: dict                 # job name -> FitResult
    ledgers: dict              # job name -> DropLedger
    hausman: dict              # "static"/"dynamic" -> HausmanResult
    long_run: dict             # job name -> {column: (estimate, se)}
    n_days: dict               # job name -> number of distinct dates used


def _fit_one(metas, bundle, spec, window=None):
    design, ledger = build_design(metas, bundle, spec, window=window)
    return estimator_for(spec).fit(design).result_, ledger, design


def run_baseline(metas, bundle, config, window=None):
    """Static and dynamic RE/FE fits with Hausman tests and long-run effects.

    The displayed fits use the configured weights and covariance; the
    Hausman statistics come from auxiliary unweighted fits with classical
    covariances, the construction under which the efficient-vs-consistent
    ordering actually holds.
    """
    specs = _baseline_specs(config)
    fits, ledgers, n_days, designs = {}, {}, {}, {}
    for job in BASELINE_JOBS:
        result, ledger, design = _fit_one(metas, bundle, specs[job], window=window)
        fits[job] = result
        ledgers[job] = ledger
        n_days[job] = len(np.unique(design.dates))
        designs[job] = design

    tests = {}
    for label in ("static", "dynamic"):
        fe = FixedEffects(covariance="classical").fit(designs[f"{label}_fixed"]).result_
        re = RandomEffects(covariance="classical").fit(designs[f"{label}_random"]).result_
        tests[label] = hausman(fe, re)
    long_run = {}
    for job in ("dynamic_random", "dynamic_fixed"):
        fit = fits[job]
        phi = fit.phi
        if phi is None:
            continue
        per_column = {}
        for name in fit.columns:
            if name == fit.lag_column:
                continue
            per_column[name] = (
                long_run_effect(fit.coef(name), phi),
                fit.se_of(name) / (1.0 - phi),
            )
        long_run[job] = per_column
    return BaselineFragment(
        fits=fits, ledgers=ledgers, hausman=tests, long_run=long_run, n_days=n_days
    )


def quantile_spec(config):
    return ModelSpec(
        effects="pooled",
        weights="none",
        dynamic=False,
        covariance=config.covariance,
        regressors=list(CONTROLS) + ["hyfi"],
    )


@dataclass
class QuantileFragment:
    fits: dict                 # tau -> QuantileFit
    errors: dict               # tau -> error message for isolated failures
    ledger: DropLedger


def run_quantiles(metas, bundle, config, window=None):
    """Pooled quantile fits at every requested tau; failures stay isolated."""
    design, ledger = build_design(metas, bundle, quantile_spec(config), window=window)
    fits, errors = {}, {}
    for tau in config.taus:
        try:
            fits[tau] = PanelQuantile(tau=tau).fit(design).result_
        except (ValueError, RuntimeError) as exc:
            errors[tau] = str(exc)
    return QuantileFragment(fits=fits, errors=errors, ledger=ledger)


@dataclass
class SplitFragment:
    pre: BaselineFragment
    post: BaselineFragment
    split_date: str
    attenuation: dict          # "pre"/"post" -> (estimate, se) for the interaction


def run_split(metas, bundle, config):
    """Re-run the baseline battery before and after the split date."""
    split = parse_date(config.split_date)
    all_dates = [s.dates for per in bundle.values() for s in per.values()]
    lo = min(d[0] for d in all_dates if len(d))
    hi = max(d[-1] for d in all_dates if len(d))
    if not lo <= split <= hi:
        raise ValueError(f"split_date {split} outside panel range [{lo}, {hi}]")
    pre = run_baseline(metas, bundle, config, window=(lo, split - DAY))
    post = run_baseline(metas, bundle, config, window=(split, hi))
    name = "hyfi_x_market_volatility"
    attenuation = {}
    for label, fragment in (("pre", pre), ("post", post)):
        fit = fragment.fits["static_fixed"]
        if name in fit.columns:
            attenuation[label] = (fit.coef(name), fit.se_of(name))
    return SplitFragment(
        pre=pre, post=post, split_date=str(split), attenuation=attenuation
    )


# ---------------------------------------------------------------------------
# figure data


FIG4_GRID = np.round(np.linspace(-1.0, 5.0, 61), 10)


def figure4_rows(intercept, slope_nonhyfi, slope_hyfi, phi, grid=FIG4_GRID):
    """Predicted-line data over a (standardized) volatility grid.

    Long-run lines share the intercept and divide slopes by (1 - phi); the
    long-run columns are the dashed analogues of the short-run lines.
    """
    lr_non = long_run_effect(slope_nonhyfi, phi)
    lr_hyfi = long_run_effect(slope_hyfi, phi)
    rows = []
    for x in grid:
        short_non = intercept + slope_nonhyfi * x
        short_hyfi = intercept + slope_hyfi * x
        long_non = intercept + lr_non * x
        long_hyfi = intercept + lr_hyfi * x
        rows.append(
            (
                float(x),
                short_non,
                short_hyfi,
                short_hyfi - short_non,
                long_non,
                long_hyfi,
                long_hyfi - long_non,
            )
        )
    return rows


FIG4_HEADER = (
    "x",
    "short_nonhyfi",
    "short_hyfi",
    "short_diff",
    "long_nonhyfi",
    "long_hyfi",
    "long_diff",
)
FIG5_HEADER = ("model", "horizon", "group", "estimate", "se", "lo", "hi")
FIG6_HEADER = ("tau", "term", "estimate", "se", "lo", "hi")
FIG7_HEADER = ("period", "estimate", "se", "lo", "hi")


def _interval(estimate, se):
    return estimate - 1.959963984540054 * se, estimate + 1.959963984540054 * se


def _slope_pairs(fit, scale=1.0):
    """Non-HyFi and HyFi volatility slopes with covariance-free SEs."""
    mv = fit.coef("market_volatility") * scale
    mv_se = fit.se_of("market_volatility") * scale
    name = "hyfi_x_market_volatility"
    if name in fit.columns:
        inter = fit.coef(name) * scale
        inter_se = fit.se_of(name) * scale
        hyfi = mv + inter
        hyfi_se = math.sqrt(mv_se**2 + inter_se**2)
    else:
        hyfi, hyfi_se = mv, mv_se
    return (mv, mv_se), (hyfi, hyfi_se)


def figure5_rows(static_fit, dynamic_fit, scale=1.0):
    rows = []
    for model, fit in (("static_fixed", static_fit), ("dynamic_fixed", dynamic_fit)):
        non, hyfi = _slope_pairs(fit, scale)
        horizons = [("short", 1.0)]
        if fit.phi is not None:
            horizons.append(("long", 1.0 / (1.0 - fit.phi)))
        for horizon, factor in horizons:
            for group, (est, se) in (("nonhyfi", non), ("hyfi", hyfi)):
                est_h, se_h = est * factor, se * factor
                lo, hi = _interval(est_h, se_h)
                rows.append((model, horizon, group, est_h, se_h, lo, hi))
    return rows


def figure6_rows(quantile_fits):
    rows = []
    for tau in sorted(quantile_fits):
        fit = quantile_fits[tau]
        for term in fit.columns:
            est = fit.coef(term)
            se = fit.se_of(term)
            lo, hi = _interval(est, se)
            rows.append((float(tau), term, est, se, lo, hi))
    return rows


def figure7_rows(attenuation):
    rows = []
    for period in ("pre", "post"):
        if period not in attenuation:
            continue
        est, se = attenuation[period]
        lo, hi = _interval(est, se)
        rows.append((period, est, se, lo, hi))
    return rows


def emit_figures(figures_dir, config, baseline=None, quantiles=None, split=None,
                 volatility_scale=1.0):
    """Write figure-data CSVs for whichever fragments are available.

    Returns the list of files written (report manifest bookkeeping).  The
    volatility scale converts raw-volatility slopes to the standardized
    axis used by the line and slope figures.
    """
    os.makedirs(figures_dir, exist_ok=True)
    written = []

    if baseline is not None:
        dynamic_fit = baseline.fits["dynamic_fixed"]
        non, hyfi = _slope_pairs(dynamic_fit, volatility_scale)
        fig4 = figure4_rows(
            dynamic_fit.intercept if dynamic_fit.intercept is not None else 0.0,
            non[0],
            hyfi[0],
            dynamic_fit.phi if dynamic_fit.phi is not None else 0.0,
        )
        _write_csv(os.path.join(figures_dir, "fig4.csv"), FIG4_HEADER, fig4)
        fig5 = figure5_rows(baseline.fits["static_fixed"], dynamic_fit, volatility_scale)
        _write_csv(os.path.join(figures_dir, "fig5.csv"), FIG5_HEADER, fig5)
        written += ["fig4.csv", "fig5.csv"]
    if quantiles is not None and quantiles.fits:
        _write_csv(os.path.join(figures_dir, "fig6.csv"), FIG6_HEADER,
                   figure6_rows(quantiles.fits))
        written.append("fig6.csv")
    if split is not None:
        _write_csv(os.path.join(figures_dir, "fig7.csv"), FIG7_HEADER,
                   figure7_rows(split.attenuation))
        written.append("fig7.csv")

    if config.with_reference_figures:
        reference = reference_figures()
        for name, header in (("fig4", FIG4_HEADER), ("fig5", FIG5_HEADER),
                             ("fig6", FIG6_HEADER), ("fig7", FIG7_HEADER)):
            _write_csv(os.path.join(figures_dir, f"reference_{name}.csv"),
                       header, reference[name])
            written.append(f"reference_{name}.csv")
    return written


def reference_figures():
    """Figure data recomputed from the bundled benchmark estimates."""
    dyn = refdata.BENCHMARK_DYNAMIC_FIXED
    static = refdata.BENCHMARK_STATIC_FIXED
    phi = dyn["price_risk_lag"][0]
    slope_non = dyn["market_volatility"][0]
    slope_hyfi = slope_non + dyn["hyfi_x_market_volatility"][0]
    fig4 = figure4_rows(dyn["intercept"][0], slope_non, slope_hyfi, phi)

    fig5 = []
    for model, table, lag in (
        ("static_fixed", static, None),
        ("dynamic_fixed", dyn, phi),
    ):
        mv, mv_se = table["market_volatility"]
        inter, inter_se = table["hyfi_x_market_volatility"]
        pairs = (("nonhyfi", mv, mv_se), ("hyfi", mv + inter, math.hypot(mv_se, inter_se)))
        horizons = [("short", 1.0)] + ([("long", 1.0 / (1.0 - lag))] if lag else [])
        for horizon, factor in horizons:
            for group, est, se in pairs:
                lo, hi = _interval(est * factor, se * factor)
                fig5.append((model, horizon, group, est * factor, se * factor, lo, hi))

    fig6 = []
    for tau in sorted(refdata.BENCHMARK_QUANTILE_HYFI):
        est, se = refdata.BENCHMARK_QUANTILE_HYFI[tau]
        lo, hi = _interval(est, se)
        fig6.append((float(tau), "hyfi", est, se, lo, hi))

    fig7 = []
    for period in ("pre", "post"):
        est, se = refdata.BENCHMARK_SPLIT_INTERACTION[period]
        lo, hi = _interval(est, se)
        fig7.append((period, est, se, lo, hi))
    return {"fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7}


# ---------------------------------------------------------------------------
# synthetic data generation


@dataclass
class SynthParams:
    """Calibration of the synthetic panel generator.

    Defaults mirror the benchmark fixed-effects estimates; the per-entity
    noise scale runs linearly from sigma_low to sigma_high, which makes the
    cross-section-weighted GLS strictly more efficient than OLS.
    """

    n_entities: int = 18
    n_periods: int = 1790
    start: str = "2020-01-01"
    market_warmup: int = 31
    beta: dict = None
    phi: float = 0.0
    sigma_alpha: float = 0.01
    sigma_low: float = 0.006
    sigma_high: float = 0.030
    use_benchmark_universe: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.beta is None:
            self.beta = default_truth()
        if abs(self.phi) >= 1.0:
            raise ValueError("phi must satisfy |phi| < 1")
        if min(self.sigma_low, self.sigma_high, self.sigma_alpha) < 0:
            raise ValueError("noise scales must be nonnegative")
        if self.sigma_low <= 0 or self.sigma_high <= 0:
            raise ValueError("sigma_low and sigma_high must be positive")
        if self.n_entities < 2 or self.n_periods < 40:
            raise ValueError("need at least 2 entities and 40 periods")
        if self.market_warmup < 31:
            raise ValueError("market warmup must cover the volatility window")


def default_truth():
    return {
        "const": refdata.BENCHMARK_STATIC_FIXED["intercept"][0],
        "decentralization": refdata.BENCHMARK_STATIC_FIXED["decentralization"][0],
        "attractiveness": refdata.BENCHMARK_STATIC_FIXED["attractiveness"][0],
        "size": refdata.BENCHMARK_STATIC_FIXED["size"][0],
        "illiquidity": refdata.BENCHMARK_STATIC_FIXED["illiquidity"][0],
        "market_volatility": refdata.BENCHMARK_STATIC_FIXED["market_volatility"][0],
        "market_shocks": refdata.BENCHMARK_STATIC_FIXED["market_shocks"][0],
        "hyfi": refdata.BENCHMARK_STATIC_RANDOM["hyfi"][0],
        "hyfi_x_market_volatility": refdata.BENCHMARK_STATIC_FIXED[
            "hyfi_x_market_volatility"
        ][0],
    }


@dataclass
class SimulatedPanel:
    metas: list
    bundle: dict               # entity -> {metric name -> MetricSeries}
    truth: dict
    params: SynthParams

    def entity_sigmas(self):
        return self.truth["sigma_i"]


def _synthetic_metas(params, rng):
    if params.use_benchmark_universe and params.n_entities == 18:
        return refdata.benchmark_metas()
    metas = []
    start = np.datetime64(params.start, "D")
    n_hyfi = max(1, round(0.22 * params.n_entities))
    for i in range(params.n_entities):
        components = tuple(np.round(rng.uniform(0.2, 0.95, size=5), 4))
        metas.append(
            EntityMeta(
                symbol=f"TOK{i:02d}",
                category="synthetic",
                hyfi=i < n_hyfi,
                listing_date=start,
                gini_components=components,
            )
        )
    return metas


def simulate_dgp(params, seed=None):
    """Seeded synthetic panel following the study's linear specification.

    Regressor processes (documented in the run manifest):
      market volatility  rolling-window sd of simulated index log returns with
                         a slowly mean-reverting log volatility state;
      market shocks      ln(1 + loss), zero-inflated lognormal losses;
      size               one-day change of a log market-cap random walk;
      illiquidity        per-entity z-score of |return| / lognormal volume;
      attractiveness     ln(1 + capped exponential attention);
      decentralization   static composite purified against pooled ln(mcap).
    The response adds entity effects alpha_i ~ N(0, sigma_alpha^2) and
    heteroskedastic Gaussian noise with per-entity scales.
    """
    if seed is None:
        seed = params.seed
    rng = np.random.default_rng(seed)
    metas = _synthetic_metas(params, rng)
    start = np.datetime64(params.start, "D")
    calendar = start + np.arange(params.n_periods)
    market_dates = start - params.market_warmup + np.arange(
        params.n_periods + params.market_warmup
    )

    # market index with persistent log-volatility
    n_market = len(market_dates)
    log_sigma = np.empty(n_market)
    mu = math.log(0.02)
    log_sigma[0] = mu
    innovations = rng.normal(0.0, 0.12, size=n_market)
    for t in range(1, n_market):
        log_sigma[t] = mu + 0.98 * (log_sigma[t - 1] - mu) + innovations[t]
    sigma_m = np.exp(log_sigma)
    index_returns = sigma_m * rng.standard_normal(n_market)
    index_levels = 100.0 * np.exp(np.cumsum(index_returns))
    market_vol = mx.realized_volatility(market_dates, index_levels, window=30)

    occurs = rng.random(n_market) < 0.35
    losses = np.where(occurs, np.exp(rng.normal(12.0, 2.5, size=n_market)), 0.0)
    market_shocks = mx.market_shocks_series(
        market_dates, losses, np.zeros(n_market, dtype=bool)
    )

    bundle = {MARKET_SYMBOL: {"market_volatility": market_vol, "market_shocks": market_shocks}}

    sigma_i = np.linspace(params.sigma_low, params.sigma_high, params.n_entities)
    alphas = rng.normal(0.0, params.sigma_alpha, size=params.n_entities)

    mv_by_date = dict(zip(market_vol.dates.tolist(), market_vol.values))
    shock_by_date = dict(zip(market_shocks.dates.tolist(), market_shocks.values))

    entity_frames = []
    for i, meta in enumerate(metas):
        dates = calendar[calendar >= meta.listing_date]
        n = len(dates)
        log_mcap = math.log(1e9) + rng.normal(0.0, 1.0) + np.concatenate(
            ([0.0], np.cumsum(rng.normal(0.0, 0.06, size=n - 1)))
        )
        size = mx.MetricSeries(
            meta.symbol,
            "size",
            dates,
            np.concatenate(([np.nan], np.diff(log_mcap))),
            np.concatenate(([True], np.zeros(n - 1, dtype=bool))),
        )
        returns = np.concatenate(([np.nan], rng.normal(0.0, 0.05, size=n - 1)))
        volume = np.exp(rng.normal(16.0, 1.0, size=n))
        amihud_values = np.abs(returns) / volume
        amihud_series = mx.MetricSeries(
            meta.symbol,
            "amihud",
            dates,
            amihud_values,
            np.concatenate(([True], np.zeros(n - 1, dtype=bool))),
        )
        illiquidity = mx.zscore_per_entity(amihud_series)
        illiquidity.name = "illiquidity"
        attention = np.minimum(rng.exponential(12.0, size=n), 100.0)
        attractiveness = mx.MetricSeries(
            meta.symbol, "attractiveness", dates, np.log1p(attention),
            np.zeros(n, dtype=bool),
        )
        entity_frames.append(
            {
                "meta": meta,
                "dates": dates,
                "log_mcap": log_mcap,
                "size": size,
                "illiquidity": illiquidity,
                "attractiveness": attractiveness,
                "alpha": alphas[i],
                "sigma": sigma_i[i],
            }
        )

    pooled_dec = np.concatenate(
        [
            np.full(len(f["dates"]), dec.composite_index(f["meta"].gini_components))
            for f in entity_frames
        ]
    )
    pooled_mcap = np.concatenate([f["log_mcap"] for f in entity_frames])
    residuals, res_missing = dec.orthogonalize(pooled_dec, pooled_mcap)

    offset = 0
    for f in entity_frames:
        meta = f["meta"]
        dates = f["dates"]
        n = len(dates)
        dec_series = mx.MetricSeries(
            meta.symbol,
            "decentralization",
            dates,
            residuals[offset:offset + n],
            res_missing[offset:offset + n],
        )
        offset += n

        mv = np.array([mv_by_date.get(d, np.nan) for d in dates.tolist()])
        shocks = np.array([shock_by_date.get(d, np.nan) for d in dates.tolist()])
        hyfi = 1.0 if meta.hyfi else 0.0
        beta = params.beta
        regression_part = (
            beta["const"]
            + beta["decentralization"] * dec_series.values
            + beta["attractiveness"] * f["attractiveness"].values
            + beta["size"] * f["size"].values
            + beta["illiquidity"] * f["illiquidity"].values
            + beta["market_volatility"] * mv
            + beta["market_shocks"] * shocks
            + beta["hyfi"] * hyfi
            + beta["hyfi_x_market_volatility"] * hyfi * mv
            + f["alpha"]
        )
        noise = rng.normal(0.0, f["sigma"], size=n)
        missing = ~np.isfinite(regression_part)
        pr = np.full(n, np.nan)
        defined = np.flatnonzero(~missing)
        if params.phi == 0.0:
            pr[defined] = regression_part[defined] + noise[defined]
        else:
            steady = regression_part[defined] / (1.0 - params.phi)
            previous = steady[0] if defined.size else 0.0
            for pos, t in enumerate(defined):
                value = regression_part[t] + params.phi * previous + noise[t]
                pr[t] = value
                previous = value
        price_risk = mx.MetricSeries(meta.symbol, "price_risk", dates, pr, missing)

        bundle[meta.symbol] = {
            "price_risk": price_risk,
            "decentralization": dec_series,
            "attractiveness": f["attractiveness"],
            "size": f["size"],
            "illiquidity": f["illiquidity"],
        }

    truth = dict(params.beta)
    truth["phi"] = params.phi
    truth["sigma_alpha"] = params.sigma_alpha
    truth["sigma_i"] = sigma_i
    return SimulatedPanel(metas=metas, bundle=bundle, truth=truth, params=params)


def write_meta_csv(metas, path):
    from .panel import META_HEADER

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(META_HEADER)
        for meta in metas:
            writer.writerow(
                (
                    meta.symbol,
                    meta.category,
                    "1" if meta.hyfi else "0",
                    str(meta.listing_date),
                )
                + tuple(repr(float(c)) for c in meta.gini_components)
            )


def write_simulation(sim, outdir):
    """Write metrics.csv, meta.csv and a process manifest for a simulation."""
    os.makedirs(outdir, exist_ok=True)
    write_metrics_csv(sim.bundle, os.path.join(outdir, "metrics.csv"))
    write_meta_csv(sim.metas, os.path.join(outdir, "meta.csv"))
    lines = [
        "panelcrypt synthetic panel",
        f"version = {__version__}",
        f"seed = {sim.params.seed}",
        f"entities = {sim.params.n_entities}",
        f"periods = {sim.params.n_periods}",
        f"phi = {sim.params.phi}",
        f"sigma_alpha = {sim.params.sigma_alpha}",
        f"sigma_range = [{sim.params.sigma_low}, {sim.params.sigma_high}]",
        "coefficients:",
    ]
    lines += [f"  {k} = {v}" for k, v in sorted(sim.truth.items()) if np.isscalar(v)]
    lines += [
        "processes:",
        "  market_volatility: 30-day rolling sd of index log returns,"
        " AR(1) log-volatility state",
        "  market_shocks: ln(1+loss), zero-inflated lognormal",
        "  size: one-day diff of a log market-cap random walk",
        "  illiquidity: per-entity z-score of |return|/volume",
        "  attractiveness: ln(1+attention), capped exponential",
        "  decentralization: static composite orthogonalized on pooled ln(mcap)",
    ]
    with open(os.path.join(outdir, "manifest.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# report emission


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _term_rows(fit):
    rows = []
    for name in fit.columns:
        est, se = fit.coef(name), fit.se_of(name)
        rows.append((name, est, se, stars(est, se)))
    return rows


def _coefficient_rows(fit):
    """(term, estimate, se, stars) rows of a panel fit; a fixed-effects fit's
    mean entity effect comes first as ``const``."""
    rows = []
    if fit.intercept is not None:
        se = fit.intercept_se if fit.intercept_se is not None else float("nan")
        rows.append(("const", fit.intercept, se, stars(fit.intercept, se)))
    return rows + _term_rows(fit)


def _quantile_rows(fit):
    """(term, estimate, se, stars) rows and (statistic, value) rows of one
    quantile fit."""
    return _term_rows(fit), [
        ("pseudo_r2", fit.pseudo_r2),
        ("sparsity", fit.sparsity),
        ("hall_sheather_bw", fit.hall_sheather_bw),
        ("quantile_dependent", fit.quantile_dependent),
        ("quasi_lr", fit.quasi_lr_stat),
        ("quasi_lr_p", fit.quasi_lr_pvalue),
        ("nobs", float(fit.nobs)),
    ]


def _fitstat_rows(label, fit, test=None):
    rows = [
        (label, "nobs", float(fit.nobs)),
        (label, "n_entities", float(fit.n_entities)),
        (label, "r2", fit.r2),
        (label, "adj_r2", fit.adj_r2),
    ]
    vc = fit.variance_components
    if vc is not None:
        rows += [
            (label, "sd_alpha", vc.sd_alpha),
            (label, "sd_idiosyncratic", vc.sd_idiosyncratic),
            (label, "rho_alpha", vc.rho_alpha),
            (label, "rho_idiosyncratic", vc.rho_idiosyncratic),
        ]
    if fit.phi is not None:
        rows.append((label, "phi", fit.phi))
    if test is not None:
        rows += [
            (label, "hausman_stat", test.statistic),
            (label, "hausman_df", float(test.df)),
            (label, "hausman_p", test.p_value),
        ]
    return rows


def _summary_block(fragment):
    """Fixed-width text table mirroring the published layout, at 4 decimals."""

    jobs = BASELINE_JOBS
    names = ["const"]
    for job in jobs:
        for name in fragment.fits[job].columns:
            if name not in names:
                names.append(name)

    def cell(fit, name):
        if name == "const" and fit.intercept is not None:
            est, se = fit.intercept, fit.intercept_se
        elif name in fit.columns:
            est, se = fit.coef(name), fit.se_of(name)
        else:
            return "-", ""
        return f"{est:.4f}{stars(est, se)}", f"({se:.4f})"

    width = 24
    lines = []
    header = "".ljust(24) + "".join(job.ljust(width) for job in jobs)
    lines.append(header)
    lines.append("-" * len(header))
    for name in names:
        top = name.ljust(24)
        bottom = "".ljust(24)
        for job in jobs:
            est, se = cell(fragment.fits[job], name)
            top += est.ljust(width)
            bottom += se.ljust(width)
        lines.append(top)
        lines.append(bottom)
    for caption, attr in (
        ("cross_section_random", "alpha"),
        ("idiosyncratic_random", "idiosyncratic"),
    ):
        row = caption.ljust(24)
        for job in jobs:
            vc = fragment.fits[job].variance_components
            if vc is None:
                row += "-".ljust(width)
            elif attr == "alpha":
                row += f"SD {vc.sd_alpha:.4f} Rho {vc.rho_alpha:.4f}".ljust(width)
            else:
                row += (
                    f"SD {vc.sd_idiosyncratic:.4f} Rho {vc.rho_idiosyncratic:.4f}"
                ).ljust(width)
        lines.append(row)
    for label in ("static", "dynamic"):
        test = fragment.hausman[label]
        lines.append(
            f"hausman_{label}".ljust(24)
            + f"{test.statistic:.4f} [{test.p_value:.4f}] df={test.df}"
        )
    row = "adj_r2".ljust(24)
    for job in jobs:
        row += f"{fragment.fits[job].adj_r2:.4f}".ljust(width)
    lines.append(row)
    row = "nobs".ljust(24)
    for job in jobs:
        row += str(fragment.fits[job].nobs).ljust(width)
    lines.append(row)
    row = "n_entities".ljust(24)
    for job in jobs:
        row += str(fragment.fits[job].n_entities).ljust(width)
    lines.append(row)
    row = "n_days".ljust(24)
    for job in jobs:
        row += str(fragment.n_days[job]).ljust(width)
    lines.append(row)
    return "\n".join(lines) + "\n"


def _volatility_scale(design):
    column = design.column("market_volatility")
    return float(column.std(ddof=1)), float(column.mean())


def load_inputs(config):
    """Panel mode computes metrics from raw data; metrics mode loads them."""
    panel = None
    if config.panel:
        panel = load_panel_csv(config.panel)
        bundle = metrics_from_panel(panel, window=config.volatility_window)
        metas = list(panel.entities)
    else:
        bundle = read_metrics_csv(config.metrics_file)
        metas = read_meta_csv(config.meta)
        missing = [m.symbol for m in metas if m.symbol not in bundle]
        if missing:
            raise ValueError(f"metrics file lacks entities {missing}")
    if not config.raw_volatility_in_fits:
        standardize_market_volatility(bundle)
    return metas, bundle, panel


def raw_attention_pooled(panel):
    """Untransformed search-interest values, for descriptive tables."""
    parts = []
    for meta in panel.entities:
        rec = panel.observations[meta.symbol]
        parts.append(rec.values["attention"][~rec.missing["attention"]])
    return np.concatenate(parts) if parts else np.array([])


def run_report(config):
    """Execute every requested fragment and write the report bundle."""
    outdir = config.out
    tables = os.path.join(outdir, "tables")
    figures = os.path.join(outdir, "figures")
    os.makedirs(tables, exist_ok=True)
    os.makedirs(figures, exist_ok=True)

    metas, bundle, panel = load_inputs(config)
    manifest = [
        "panelcrypt report",
        f"version = {__version__}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        "config:",
    ]
    for key in sorted(_CONFIG_KEYS):
        attr, _ = _CONFIG_KEYS[key]
        value = getattr(config, attr)
        if attr == "taus":
            value = ",".join(f"{t:g}" for t in value)
        manifest.append(f"  {key} = {value}")

    if config.with_diagnostics:
        extra = {"attention_raw": raw_attention_pooled(panel)} if panel else None
        _emit_diagnostics(metas, bundle, config, tables, extra_pooled=extra)
        manifest.append("job diagnostics: tables/descriptives.csv,"
                        " tables/correlations.csv, tables/unit_roots.csv,"
                        " tables/dependence.csv")

    baseline = None
    if config.with_baseline:
        baseline = run_baseline(metas, bundle, config)
        coefficient_rows, fitstat_rows = [], []
        for job in BASELINE_JOBS:
            fit = baseline.fits[job]
            coefficient_rows += [(job,) + row for row in _coefficient_rows(fit)]
            test = baseline.hausman["static" if job.startswith("static") else "dynamic"]
            fitstat_rows += _fitstat_rows(job, fit, test)
        for job, per_column in sorted(baseline.long_run.items()):
            for name, (est, se) in per_column.items():
                coefficient_rows.append((f"{job}_long_run", name, est, se, stars(est, se)))
        _write_csv(
            os.path.join(tables, "baseline_coefficients.csv"),
            ("fit", "term", "estimate", "se", "stars"),
            coefficient_rows,
        )
        _write_csv(
            os.path.join(tables, "baseline_fitstats.csv"),
            ("fit", "statistic", "value"),
            fitstat_rows,
        )
        with open(os.path.join(tables, "baseline_summary.txt"), "w") as handle:
            handle.write(_summary_block(baseline))
        for job in BASELINE_JOBS:
            ledger = baseline.ledgers[job]
            manifest.append(
                f"job baseline/{job}: rows_in={ledger.rows_in}"
                f" rows_used={ledger.rows_used} dropped={ledger.dropped}"
                + (f" notes={ledger.notes}" if ledger.notes else "")
            )

    quantiles = None
    if config.with_quantiles:
        quantiles = run_quantiles(metas, bundle, config)
        rows, fitstats, path_rows = [], [], []
        for tau in sorted(quantiles.fits):
            terms, stats = _quantile_rows(quantiles.fits[tau])
            rows += [(float(tau),) + row for row in terms]
            path_rows += [(float(tau),) + row[:3] for row in terms]
            fitstats += [(float(tau),) + row for row in stats]
        _write_csv(
            os.path.join(tables, "quantile_coefficients.csv"),
            ("tau", "term", "estimate", "se", "stars"),
            rows,
        )
        _write_csv(
            os.path.join(tables, "quantile_fitstats.csv"),
            ("tau", "statistic", "value"),
            fitstats,
        )
        _write_csv(
            os.path.join(tables, "quantile_path.csv"),
            ("tau", "term", "estimate", "se"),
            path_rows,
        )
        ledger = quantiles.ledger
        manifest.append(
            f"job quantiles: rows_in={ledger.rows_in} rows_used={ledger.rows_used}"
            f" dropped={ledger.dropped}"
        )
        for tau, message in sorted(quantiles.errors.items()):
            manifest.append(f"job quantiles tau={tau}: FAILED {message}")

    split = None
    if config.with_split:
        split = run_split(metas, bundle, config)
        rows, fitstats = [], []
        for period, fragment in (("pre", split.pre), ("post", split.post)):
            for job in BASELINE_JOBS:
                fit = fragment.fits[job]
                rows += [(period, job) + row for row in _coefficient_rows(fit)]
                test = fragment.hausman["static" if job.startswith("static") else "dynamic"]
                for row in _fitstat_rows(job, fit, test):
                    fitstats.append((period,) + row)
                fitstats.append((period, job, "n_days", float(fragment.n_days[job])))
        _write_csv(
            os.path.join(tables, "split_coefficients.csv"),
            ("period", "fit", "term", "estimate", "se", "stars"),
            rows,
        )
        _write_csv(
            os.path.join(tables, "split_fitstats.csv"),
            ("period", "fit", "statistic", "value"),
            fitstats,
        )
        manifest.append(
            f"job split: split_date={split.split_date}"
            f" pre_days={split.pre.n_days['static_fixed']}"
            f" post_days={split.post.n_days['static_fixed']}"
        )

    scale = 1.0
    if baseline is not None and config.standardize_figures and config.raw_volatility_in_fits:
        design, _ = build_design(metas, bundle, _baseline_specs(config)["static_fixed"])
        scale, _mean = _volatility_scale(design)
    written = emit_figures(figures, config, baseline=baseline, quantiles=quantiles,
                           split=split, volatility_scale=scale)
    manifest.append(f"job figures: volatility_scale={scale!r} files={written}")

    with open(os.path.join(outdir, "manifest.txt"), "w") as handle:
        handle.write("\n".join(manifest) + "\n")
    return outdir


def _emit_diagnostics(metas, bundle, config, tables, extra_pooled=None):
    """Descriptives, correlations, unit roots and dependence tests.

    ``extra_pooled`` optionally appends raw-valued variables (for example
    untransformed attention) to the descriptive table.
    """
    calendar = np.unique(
        np.concatenate([s.dates for per in bundle.values() for s in per.values()])
    )
    date_index = {d: i for i, d in enumerate(calendar.tolist())}

    def aligned(entity, name):
        series = bundle[entity][name]
        out = np.full(len(calendar), np.nan)
        ok = np.flatnonzero(~series.missing)
        idx = [date_index[d] for d in series.dates[ok].tolist()]
        out[idx] = series.values[ok]
        return out

    variables = ["price_risk"] + [c for c in CONTROLS if c not in MARKET_METRICS]
    pooled = {}
    per_entity_matrix = {}
    for name in variables:
        stacked = [aligned(meta.symbol, name) for meta in metas]
        per_entity_matrix[name] = np.vstack(stacked)
        pooled[name] = np.concatenate(
            [bundle[meta.symbol][name].present_values() for meta in metas]
        )
    for name in MARKET_METRICS:
        series = bundle[MARKET_SYMBOL][name]
        pooled[name] = series.present_values()
    hyfi_pooled = np.concatenate(
        [
            np.full(len(bundle[m.symbol]["price_risk"]), 1.0 if m.hyfi else 0.0)
            for m in metas
        ]
    )
    pooled["hyfi"] = hyfi_pooled

    if extra_pooled:
        for name, values in extra_pooled.items():
            if len(values):
                pooled[name] = values

    rows = []
    order = ["price_risk"] + list(CONTROLS) + ["hyfi"]
    order += [name for name in (extra_pooled or {}) if name in pooled]
    for name in order:
        row = diag.describe(pooled[name])
        rows.append(
            (
                name,
                row.mean,
                row.median,
                row.maximum,
                row.minimum,
                row.std_dev,
                row.skewness,
                row.kurtosis,
                float(row.nobs),
            )
        )
    _write_csv(
        os.path.join(tables, "descriptives.csv"),
        ("variable", "mean", "median", "maximum", "minimum", "std_dev",
         "skewness", "kurtosis", "nobs"),
        rows,
    )

    # correlations on pooled entity-day rows with market values broadcast
    corr_names = list(CONTROLS)
    stacked = {}
    for name in corr_names:
        parts = []
        for meta in metas:
            base = bundle[meta.symbol]["price_risk"].dates
            if name in MARKET_METRICS:
                values, missing = _market_aligned(bundle, name, base)
            else:
                values, missing = _aligned(bundle[meta.symbol][name], base)
            values = values.copy()
            values[missing] = np.nan
            parts.append(values)
        stacked[name] = np.concatenate(parts)
    matrix, labels = diag.correlation_matrix(
        [stacked[name] for name in corr_names], corr_names
    )
    rows = [
        (labels[i],) + tuple(matrix[i])
        for i in range(len(labels))
    ]
    _write_csv(
        os.path.join(tables, "correlations.csv"),
        ("variable",) + tuple(labels),
        rows,
    )

    unit_rows = []
    for name in variables:
        try:
            result = diag.cips(per_entity_matrix[name], entity_labels=[m.symbol for m in metas])
            unit_rows.append(
                (name, "cips", result.statistic, result.truncated_statistic,
                 result.stars, float(result.nobs))
            )
        except ValueError as exc:
            unit_rows.append((name, "cips_error", float("nan"), float("nan"), str(exc), 0.0))
    for name in MARKET_METRICS:
        series = bundle[MARKET_SYMBOL][name]
        result = diag.adf(series.present_values())
        unit_rows.append(
            (name, "adf", result.statistic, float("nan"), result.stars, float(result.nobs))
        )
    _write_csv(
        os.path.join(tables, "unit_roots.csv"),
        ("variable", "test", "statistic", "truncated", "stars", "nobs"),
        unit_rows,
    )

    dep_results = diag.dependence_tests(
        per_entity_matrix["price_risk"], entity_labels=[m.symbol for m in metas]
    )
    _write_csv(
        os.path.join(tables, "dependence.csv"),
        ("test", "statistic", "p_value", "pairs"),
        [(r.name, r.statistic, r.p_value, float(r.pair_count)) for r in dep_results],
    )

"""Study orchestration: design-matrix assembly, the baseline/quantile/split
batteries, figure-data emission, synthetic data generation and report
bundling.

Every run is deterministic: a fixed seed and config produce byte-identical
output directories.  Jobs execute and merge in a fixed order.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from array import array
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy

from . import __version__
from . import diagnostics as diag
from . import metrics as mx
from . import refdata
from .estimators import (
    DesignMatrix,
    ModelSpec,
    _Groups,
    estimator_for,
    hausman,
    long_run_effect,
)
from .panel import (
    MARKET_SYMBOL,
    META_HEADER,
    EntityMeta,
    PanelLoadError,
    csv_cell,
    date_union,
    day_texts,
    format_meta_cells,
    load_panel_csv,
    parse_date,
    read_meta_csv,
    write_blocks,
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
RESPONSE = "price_risk"
ENTITY_METRICS = (RESPONSE,) + tuple(c for c in CONTROLS if c not in MARKET_METRICS)

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

    def __post_init__(self):
        _check_taus(self.taus)
        if self.panel is None and (self.metrics_file is None or self.meta is None):
            raise ValueError("config needs either panel=, or metrics= plus meta=")
        if self.panel is not None and (self.metrics_file is not None or self.meta is not None):
            raise ValueError("config sets panel= and metrics=/meta=; a report reads one of them")
        try:
            parse_date(self.split_date)
        except PanelLoadError as exc:
            raise ValueError(f"split_date: {exc}") from None


def _check_taus(taus):
    """``taus`` if it holds at least one tau and each lies in (0, 1)."""
    if not taus:
        raise ValueError("at least one tau is needed")
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau {tau} outside (0, 1)")
    return taus


def parse_taus(text):
    """The taus of a comma list, in its order and with its repeats, checked
    by ``_check_taus``: the one rule of the report's ``taus`` key and of
    ``quantile --taus``.  An empty item is not a number."""
    return _check_taus(tuple(float(t) for t in text.split(",")) if text.strip() else ())


_CONFIG_KEYS = {
    "panel": ("panel", str),
    "metrics": ("metrics_file", str),
    "meta": ("meta", str),
    "out": ("out", str),
    "seed": ("seed", int),
    "split_date": ("split_date", "date"),
    "taus": ("taus", parse_taus),
}


_TRUE, _FALSE = ("true", "1", "yes"), ("false", "0", "no")


def parse_setting(text, kind, where, key):
    """Convert the value text of one ``key = value`` line.

    ``kind`` is ``"bool"`` (true/false, 1/0, yes/no, any case), ``"names"``
    (a comma list of names), ``"pairs"`` (a comma list of ``left*right``
    name pairs), ``"date"`` (checked by ``parse_date``, kept as text), a
    tuple of allowed strings, or a converter of the text such as ``str``,
    ``int``, ``float`` or ``parse_taus``.  A bad value raises ``ValueError``
    naming ``where`` (``path:line``) and the key.
    """
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"{where}: {key} must be one of {kind}, got {text!r}")
        return text
    try:
        if kind == "bool":
            if text.lower() not in _TRUE + _FALSE:
                raise ValueError(f"boolean expected, got {text!r}")
            return text.lower() in _TRUE
        if kind == "names":
            return [t.strip() for t in text.split(",") if t.strip()]
        if kind == "pairs":
            pairs = [tuple(n.strip() for n in t.split("*")) for t in text.split(",") if t.strip()]
            for pair in pairs:
                if len(pair) != 2 or not all(pair):
                    raise ValueError(f"expected 'left*right', got {'*'.join(pair)!r}")
            return pairs
        if kind == "date":
            parse_date(text)
            return text
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {key}: {exc}") from None


def read_settings(path, kinds, what):
    """``{key: value}`` from a flat ``key = value`` settings file.

    '#' starts a comment and blank lines are skipped.  Every other line
    needs an '=' and a key of ``kinds`` that no earlier line set; the value
    is converted by ``parse_setting`` with ``kinds[key]``.  A bad line
    raises ``ValueError`` naming ``path:line``; an unknown key is reported
    as an unknown ``what``.
    """
    values, lines = {}, {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in kinds:
                raise ValueError(f"{where}: unknown {what} {key!r}")
            if key in lines:
                raise ValueError(f"{where}: {key} already set at line {lines[key]}")
            lines[key] = lineno
            values[key] = parse_setting(text.strip(), kinds[key], where, key)
    return values


def parse_config(path):
    """Report config: a settings file (``read_settings``) of ``_CONFIG_KEYS``."""
    kinds = {key: kind for key, (_, kind) in _CONFIG_KEYS.items()}
    values = read_settings(path, kinds, "config key")
    return RunConfig(**{_CONFIG_KEYS[key][0]: value for key, value in values.items()})


# ---------------------------------------------------------------------------
# metric bundle plumbing


def write_metrics_csv(bundle, path):
    """Sparse long-format metric file: entity,date,metric,value.

    Each series is formatted and written as one block of text, with the bytes
    ``csv.writer`` gives under ``csv_cell``'s quoting, rows ended by ``\n``;
    values are written with ``repr``.  A present non-finite value raises
    ``ValueError`` naming the entity, the metric and the date, and leaves no
    file, since the reader would refuse the file.
    """
    write_blocks(path, _metrics_blocks(bundle))


def _metrics_blocks(bundle):
    """The header, then one text block per (entity, metric) series."""
    days = {}
    yield "entity,date,metric,value\n"
    for entity in sorted(bundle):
        head = csv_cell(entity) + ","
        for name in sorted(bundle[entity]):
            series = bundle[entity][name]
            present = ~series.missing
            values = series.values[present]
            dates = series.dates[present]
            finite = np.isfinite(values)
            if not finite.all():
                i = np.flatnonzero(~finite)[0]
                raise ValueError(
                    f"non-finite value {values[i]} for {entity} {name} on {dates[i]}"
                )
            tail = "," + csv_cell(name) + ","
            yield "".join(
                [f"{head}{day}{tail}{value!r}\n"
                 for day, value in zip(day_texts(dates, days), values.tolist())]
            )


def read_metrics_csv(path):
    """Load a metrics file back into a {entity: {name: MetricSeries}} bundle.

    A row without exactly four fields, an unparseable or non-finite value, an
    unparseable date and a repeated (entity, date, metric) raise
    ``PanelLoadError`` located as ``path:line``, the header being line 1.
    Entities and metrics keep the order of their first row.

    A row keeps only its float value and a day number shared with every row
    of the same date text, so each distinct date text is parsed once; both
    go into typed arrays, not Python objects.  No line number is kept per
    row; the duplicate check runs per series after a stable sort on the
    date, and only that error path reads the file again for the lines
    (``_metric_rows``).
    """
    source = os.fspath(path)
    collected = {}  # (entity, metric) -> (array("q") of days, array("d") of values)
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
                series = collected[entity, name] = (array("q"), array("d"))
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
            dates = np.frombuffer(series_days, dtype=np.int64).view("datetime64[D]")
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
            values = np.frombuffer(series_values, dtype=float)[order]
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

    def conserved(self):
        return self.rows_in == self.rows_used + sum(self.dropped.values())


def _aligned(series, dates):
    """``(values, missing)`` of a metric series on a target date vector:
    unmatched dates are missing, and the values are NaN wherever the result
    is missing.  Fast path when the grids already coincide."""
    if len(series.dates) == len(dates) and np.array_equal(series.dates, dates):
        values, missing = series.values, series.missing
    else:
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
    if missing.any():
        values = np.where(missing, np.nan, values)
    return values, missing


@dataclass
class DesignTable:
    """The entity-day rows (``metas`` order, response dates) that a report's
    designs select from.  ``columns``: name -> ``(values, missing)`` of the
    response, the metrics all entities carry, the market metrics and hyfi.
    ``lag``: the gap-aware response lag of each whole series.  ``groups``:
    the entity grouping of the rows, built once, of which each design takes
    the subset for its rows."""

    entities: np.ndarray
    dates: np.ndarray
    columns: dict
    lag: tuple

    @cached_property
    def groups(self):
        return _Groups(self.entities)


def _stacked(pairs):
    """One ``(values, missing)`` pair from per-entity pairs; empty for none."""
    values, missing = zip(*pairs) if pairs else ([np.empty(0)], [np.zeros(0, dtype=bool)])
    return np.concatenate(values), np.concatenate(missing)


def design_table(metas, bundle):
    """The ``DesignTable`` of ``metas`` in a metric bundle; a table is
    returned as it is."""
    if isinstance(bundle, DesignTable):
        return bundle
    market = bundle.get(MARKET_SYMBOL, {})
    names = [RESPONSE] + [name for name in MARKET_METRICS if name in market]
    if metas:
        common = set.intersection(*(set(bundle[meta.symbol]) for meta in metas))
        names += sorted(common - set(names) - set(MARKET_METRICS) - {"hyfi"})
    parts = {name: [] for name in names}
    lags, dates = [], []
    for meta in metas:
        per_entity = bundle[meta.symbol]
        response = per_entity[RESPONSE]
        for name in names:
            series = market[name] if name in MARKET_METRICS else per_entity[name]
            parts[name].append(_aligned(series, response.dates))
        lags.append(mx.lagged(response.values, response.missing, response.dates))
        dates.append(response.dates)
    lengths = [len(d) for d in dates]
    columns = {name: _stacked(parts[name]) for name in names}
    hyfi = np.repeat([1.0 if meta.hyfi else 0.0 for meta in metas], lengths)
    columns["hyfi"] = (hyfi, np.zeros(len(hyfi), dtype=bool))
    return DesignTable(
        entities=np.repeat(np.array([meta.symbol for meta in metas], dtype=object), lengths),
        dates=np.concatenate(dates) if dates else np.empty(0, dtype="datetime64[D]"),
        columns=columns,
        lag=_stacked(lags),
    )


def build_design(metas, bundle, spec, window=None):
    """Entity-day design matrix with interactions and gap-aware lags.

    Selects columns and rows of ``design_table(metas, bundle)``, and the
    table's entity grouping for those rows.  Rows with
    any missing value are excluded and tallied by the first missing column
    in a fixed priority order.  A regressor or interaction name
    that the bundle does not carry for every entity raises ``ValueError``
    listing the available names.
    """
    table = design_table(metas, bundle)
    for name in [*spec.regressors, *(n for pair in spec.interactions for n in pair)]:
        if name not in table.columns:
            raise ValueError(
                f"model spec names unknown metric {name!r}; available: "
                + ", ".join(sorted(table.columns))
            )
    regressors = list(spec.regressors)
    values = {name: table.columns[name] for name in [RESPONSE, *regressors]}
    interaction_names = [f"{a}_x_{b}" for a, b in spec.interactions]
    for (a, b), name in zip(spec.interactions, interaction_names):
        left, right = table.columns[a], table.columns[b]
        values[name] = (left[0] * right[0], left[1] | right[1])
    lag_names = [f"{RESPONSE}_lag"] if spec.dynamic else []
    values.update(dict.fromkeys(lag_names, table.lag))

    columns = ([] if spec.effects == "fixed" else ["const"]) + regressors
    columns += interaction_names + lag_names
    priority = [RESPONSE, *lag_names, *regressors, *interaction_names]

    complete = np.ones(len(table.dates), dtype=bool)
    if window is not None:
        start, end = (np.datetime64(day, "D") for day in window)
        complete = (table.dates >= start) & (table.dates <= end)
    rows_in = int(complete.sum())
    dropped = {}
    for name in priority:
        miss = values[name][1] & complete
        if miss.any():
            dropped[f"missing_{name}"] = int(miss.sum())
            complete &= ~miss
    if not complete.any():
        raise ValueError("design matrix is empty after dropping incomplete rows")

    # filled a column at a time, so that one column's selection is held
    matrix = np.empty((int(complete.sum()), len(columns)))
    for j, name in enumerate(columns):
        matrix[:, j] = 1.0 if name == "const" else values[name][0][complete]
    design = DesignMatrix(
        response=values[RESPONSE][0][complete],
        matrix=matrix,
        columns=columns,
        entities=table.entities[complete],
        dates=table.dates[complete],
        response_name=RESPONSE,
    )
    design.groups = table.groups.subset(complete)
    ledger = DropLedger(
        rows_in=rows_in,
        rows_used=design.nobs,
        dropped=dict(sorted(dropped.items())),
    )
    return design, ledger


# ---------------------------------------------------------------------------
# batteries


BASELINE_JOBS = ("static_random", "static_fixed", "dynamic_random", "dynamic_fixed")


# The study's one specification: cross-section EGLS for the FE fits, White
# covariances for every panel fit.
_RANDOM_STATIC = ModelSpec(effects="random", regressors=(*CONTROLS, "hyfi"))
_FIXED_STATIC = ModelSpec(effects="fixed", weights="cross_section_egls",
                          regressors=CONTROLS, interactions=(INTERACTION,))
BASELINE_SPECS = {
    "static_random": _RANDOM_STATIC,
    "static_fixed": _FIXED_STATIC,
    "dynamic_random": replace(_RANDOM_STATIC, dynamic=True),
    "dynamic_fixed": replace(_FIXED_STATIC, dynamic=True),
}


@dataclass
class BaselineFragment:
    fits: dict                 # job name -> FitResult
    ledgers: dict              # job name -> DropLedger
    hausman: dict              # "static"/"dynamic" -> HausmanResult
    long_run: dict             # job name -> {column: (estimate, se)}
    n_days: dict               # job name -> number of distinct dates used


def run_baseline(metas, bundle, window=None):
    """Static and dynamic RE/FE fits of ``BASELINE_SPECS`` with Hausman tests
    and long-run effects.

    The displayed fits are the study's: cross-section EGLS for fixed
    effects, unweighted random effects, White covariances.  The Hausman
    statistics compare unweighted fits (EGLS stage 1 and RE) with their
    classical covariances, the construction under which the
    efficient-vs-consistent ordering actually holds.  ``bundle`` may be the
    ``design_table`` of ``metas``.
    """
    table = design_table(metas, bundle)
    fits, ledgers, n_days = {}, {}, {}
    for job in BASELINE_JOBS:
        design, ledgers[job] = build_design(metas, table, BASELINE_SPECS[job], window=window)
        try:
            fits[job] = estimator_for(BASELINE_SPECS[job]).fit(design).result_
        except ValueError as exc:
            raise ValueError(f"baseline/{job}: {exc}") from exc
        n_days[job] = len(date_union([design.dates]))

    tests = {}
    for label in ("static", "dynamic"):
        fe = fits[f"{label}_fixed"].stage1
        re = fits[f"{label}_random"]
        tests[label] = hausman(replace(fe, cov=fe.classical_cov),
                               replace(re, cov=re.classical_cov))
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


QUANTILE_SPEC = ModelSpec(effects="pooled", regressors=(*CONTROLS, "hyfi"))


def quantile_spec(config):
    """``QUANTILE_SPEC``, whatever ``config``: no setting changes the report's
    quantile design.  The argument stays because ``perfbench/run.py``
    rebuilds that design through this call."""
    return QUANTILE_SPEC


@dataclass
class QuantileFragment:
    fits: dict                 # tau -> QuantileFit
    errors: dict               # tau -> error message for isolated failures
    ledger: DropLedger


def run_quantiles(metas, bundle, taus):
    """Pooled quantile fits of ``QUANTILE_SPEC`` at every tau of ``taus``;
    failures stay isolated.  ``bundle`` may be the ``design_table`` of
    ``metas``."""
    design, ledger = build_design(metas, bundle, QUANTILE_SPEC)
    fits, errors = {}, {}
    for tau in taus:
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


def run_split(metas, bundle, split_date):
    """Re-run the baseline battery before and after ``split_date`` (text that
    ``parse_date`` reads); ``bundle`` may be the ``design_table`` of ``metas``.

    The split date must fall after the first date of the design rows and no
    later than the last; a battery that still fails names its window.
    """
    table = design_table(metas, bundle)
    split = parse_date(split_date)
    lo, hi = (table.dates.min(), table.dates.max()) if len(table.dates) else (None, None)
    if lo is None or not lo < split <= hi:
        raise ValueError(f"split_date {split} outside panel range ({lo}, {hi}]")

    def battery(start, end):
        try:
            return run_baseline(metas, table, window=(start, end))
        except ValueError as exc:
            raise ValueError(f"split_date {split}: window {start} to {end}: {exc}") from exc

    pre = battery(lo, split - DAY)
    post = battery(split, hi)
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


def figure4_rows(intercept, slope_nonhyfi, slope_hyfi, phi):
    """Predicted-line data over the standardized volatility grid ``FIG4_GRID``.

    Long-run lines share the intercept and divide slopes by (1 - phi); the
    long-run columns are the dashed analogues of the short-run lines.
    """
    lr_non = long_run_effect(slope_nonhyfi, phi)
    lr_hyfi = long_run_effect(slope_hyfi, phi)
    rows = []
    for x in FIG4_GRID:
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


def _figure5_model_rows(model, non, hyfi, phi):
    """One model's fig5 rows from its non-HyFi and HyFi ``(estimate, se)``
    slopes: the short run, and the long run when ``phi`` is not None."""
    horizons = [("short", 1.0)]
    if phi is not None:
        horizons.append(("long", 1.0 / (1.0 - phi)))
    rows = []
    for horizon, factor in horizons:
        for group, (est, se) in (("nonhyfi", non), ("hyfi", hyfi)):
            est_h, se_h = est * factor, se * factor
            lo, hi = _interval(est_h, se_h)
            rows.append((model, horizon, group, est_h, se_h, lo, hi))
    return rows


def figure5_rows(static_fit, dynamic_fit, scale=1.0):
    rows = []
    for model, fit in (("static_fixed", static_fit), ("dynamic_fixed", dynamic_fit)):
        rows += _figure5_model_rows(model, *_slope_pairs(fit, scale), fit.phi)
    return rows


def _path_rows(fits):
    """``(tau, term, estimate, se)`` rows of ``(tau, QuantileFit)`` pairs, in
    the pairs' order."""
    return [(float(tau), term, est, se)
            for tau, fit in fits for term, est, se, _ in _term_rows(fit)]


def figure6_rows(quantile_fits):
    return [row + _interval(*row[2:]) for row in _path_rows(sorted(quantile_fits.items()))]


def figure7_rows(attenuation):
    rows = []
    for period in ("pre", "post"):
        if period not in attenuation:
            continue
        est, se = attenuation[period]
        lo, hi = _interval(est, se)
        rows.append((period, est, se, lo, hi))
    return rows


def emit_figures(baseline, quantiles, split, volatility_scale):
    """The figure-data files ``{name: (header, rows)}`` of the baseline,
    quantile and split fragments, then the reference figures; no
    ``fig6.csv`` when every tau failed.  The volatility scale converts
    raw-volatility slopes to the standardized axis used by the line and
    slope figures.
    """
    dynamic_fit = baseline.fits["dynamic_fixed"]
    non, hyfi = _slope_pairs(dynamic_fit, volatility_scale)
    files = {
        "fig4.csv": (FIG4_HEADER, figure4_rows(
            dynamic_fit.intercept if dynamic_fit.intercept is not None else 0.0,
            non[0],
            hyfi[0],
            dynamic_fit.phi if dynamic_fit.phi is not None else 0.0,
        )),
        "fig5.csv": (FIG5_HEADER, figure5_rows(
            baseline.fits["static_fixed"], dynamic_fit, volatility_scale)),
    }
    if quantiles.fits:
        files["fig6.csv"] = (FIG6_HEADER, figure6_rows(quantiles.fits))
    files["fig7.csv"] = (FIG7_HEADER, figure7_rows(split.attenuation))

    reference = reference_figures()
    for name, header in (("fig4", FIG4_HEADER), ("fig5", FIG5_HEADER),
                         ("fig6", FIG6_HEADER), ("fig7", FIG7_HEADER)):
        files[f"reference_{name}.csv"] = (header, reference[name])
    return files


def reference_figures():
    """Figure data recomputed from the bundled benchmark estimates."""
    dyn = refdata.BENCHMARK_DYNAMIC_FIXED
    static = refdata.BENCHMARK_STATIC_FIXED
    phi = dyn["price_risk_lag"][0]
    slope_non = dyn["market_volatility"][0]
    slope_hyfi = slope_non + dyn["hyfi_x_market_volatility"][0]
    fig4 = figure4_rows(dyn["intercept"][0], slope_non, slope_hyfi, phi)

    fig5 = []
    for model, table, lag in (("static_fixed", static, None), ("dynamic_fixed", dyn, phi)):
        mv, mv_se = table["market_volatility"]
        inter, inter_se = table["hyfi_x_market_volatility"]
        # math.hypot, not _slope_pairs' sqrt of the sum of squares: the two
        # differ in the last digit of the static HyFi SE
        fig5 += _figure5_model_rows(
            model, (mv, mv_se), (mv + inter, math.hypot(mv_se, inter_se)), lag
        )

    fig6 = []
    for tau in sorted(refdata.BENCHMARK_QUANTILE_HYFI):
        est, se = refdata.BENCHMARK_QUANTILE_HYFI[tau]
        lo, hi = _interval(est, se)
        fig6.append((float(tau), "hyfi", est, se, lo, hi))

    fig7 = figure7_rows(refdata.BENCHMARK_SPLIT_INTERACTION)
    return {"fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7}


# ---------------------------------------------------------------------------
# synthetic data generation


@dataclass
class SynthParams:
    """Calibration of the synthetic panel generator.

    Defaults mirror the benchmark fixed-effects estimates; the per-entity
    noise scale runs linearly from sigma_low to sigma_high, which makes the
    cross-section-weighted GLS strictly more efficient than OLS.  With
    ``use_benchmark_universe`` the entities are the 18 tokens of
    ``refdata.BENCHMARK_UNIVERSE``, and ``n_entities`` must be 18.
    """

    n_entities: int = 18
    n_periods: int = 1790
    start: str = "2020-01-01"
    beta: dict = None
    phi: float = 0.0
    sigma_alpha: float = 0.01
    sigma_low: float = 0.006
    sigma_high: float = 0.030
    use_benchmark_universe: bool = True

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
        universe = len(refdata.BENCHMARK_UNIVERSE)
        if self.use_benchmark_universe and self.n_entities != universe:
            raise ValueError(
                f"use_benchmark_universe = true simulates the {universe} benchmark tokens, but "
                f"n_entities = {self.n_entities}; set use_benchmark_universe = false for "
                "synthetic tokens"
            )


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
    seed: int


def _synthetic_metas(params, rng):
    if params.use_benchmark_universe:
        return refdata.benchmark_metas()
    start = np.datetime64(params.start, "D")
    n_hyfi = max(1, round(0.22 * params.n_entities))
    return [
        EntityMeta(symbol=f"TOK{i:02d}", category="synthetic", hyfi=i < n_hyfi,
                   listing_date=start,
                   gini_components=tuple(np.round(rng.uniform(0.2, 0.95, size=5), 4)))
        for i in range(params.n_entities)
    ]


def simulate_dgp(params, seed=0):
    """Seeded synthetic panel following the study's linear specification.
    ``seed`` seeds every draw, and the panel keeps it for its manifest.

    Regressor processes (documented in the run manifest):
      market volatility  rolling-window sd of simulated index log returns with
                         a slowly mean-reverting log volatility state;
      market shocks      ln(1 + loss), zero-inflated lognormal losses;
      size               one-day change of a log market-cap random walk;
      illiquidity        per-entity z-score of |return| / lognormal volume;
      attractiveness     ln(1 + capped exponential attention);
      decentralization   static composite purified against pooled ln(mcap).
    The market series, illiquidity and attractiveness come from the
    constructors of ``metrics``, which define the loaded panels' series too.
    Size, illiquidity and price risk are missing on each entity's first day.
    The response adds entity effects alpha_i ~ N(0, sigma_alpha^2) and
    heteroskedastic Gaussian noise with per-entity scales.
    """
    rng = np.random.default_rng(seed)
    metas = _synthetic_metas(params, rng)
    start = np.datetime64(params.start, "D")
    # an entity needs three listed days: its first return is missing, and
    # standardizing its illiquidity takes two more
    latest = max(metas, key=lambda meta: meta.listing_date)
    shortest = int((latest.listing_date - start).astype(np.int64)) + 3
    if params.n_periods < shortest:
        raise ValueError(
            f"n_periods = {params.n_periods} leaves {latest.symbol}, listed "
            f"{latest.listing_date}, fewer than 3 days; the smallest n_periods "
            f"that simulates is {shortest}"
        )
    calendar = start + np.arange(params.n_periods)
    # VOLATILITY_WINDOW + 1 warm-up days: market volatility is present from start - 1 on
    market_dates = start + np.arange(-(mx.VOLATILITY_WINDOW + 1), params.n_periods)

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
    market_vol = mx.realized_volatility(market_dates, index_levels)

    occurs = rng.random(n_market) < 0.35
    losses = np.where(occurs, np.exp(rng.normal(12.0, 2.5, size=n_market)), 0.0)
    market_shocks = mx.market_shocks_series(market_dates, losses, np.zeros(n_market, dtype=bool))

    bundle = {MARKET_SYMBOL: {"market_volatility": market_vol, "market_shocks": market_shocks}}

    sigma_i = np.linspace(params.sigma_low, params.sigma_high, params.n_entities)
    alphas = rng.normal(0.0, params.sigma_alpha, size=params.n_entities)

    dates_by_entity, log_mcaps = [], []
    for meta in metas:
        dates = calendar[calendar >= meta.listing_date]
        n = len(dates)
        none_missing = np.zeros(n, dtype=bool)
        first_day = np.concatenate(([True], none_missing[1:]))
        log_mcap = math.log(1e9) + rng.normal(0.0, 1.0) + np.concatenate(
            ([0.0], np.cumsum(rng.normal(0.0, 0.06, size=n - 1)))
        )
        # mx.size_change would log exp(log_mcap) and change the last bits
        size = mx.MetricSeries(meta.symbol, "size", dates,
                               np.concatenate(([np.nan], np.diff(log_mcap))), first_day)
        returns = mx.MetricSeries(meta.symbol, "log_return", dates,
                                  np.concatenate(([np.nan], rng.normal(0.0, 0.05, size=n - 1))),
                                  first_day)
        volume = np.exp(rng.normal(16.0, 1.0, size=n))
        amihud = mx.amihud_series(meta.symbol, dates, returns, volume, none_missing)
        illiquidity = mx.zscore_per_entity(amihud)
        illiquidity.name = "illiquidity"
        attention = np.minimum(rng.exponential(12.0, size=n), 100.0)
        attractiveness = mx.attractiveness_series(meta.symbol, dates, attention, none_missing)
        bundle[meta.symbol] = {
            "attractiveness": attractiveness, "size": size, "illiquidity": illiquidity
        }
        dates_by_entity.append(dates)
        log_mcaps.append(log_mcap)

    purified = mx.purified_decentralization(metas, dates_by_entity, log_mcaps)
    beta = params.beta
    for i, (meta, dates) in enumerate(zip(metas, dates_by_entity)):
        per = bundle[meta.symbol]
        n = len(dates)
        per["decentralization"] = dec_series = purified[meta.symbol]
        mv = _aligned(market_vol, dates)[0]
        shocks = _aligned(market_shocks, dates)[0]
        hyfi = 1.0 if meta.hyfi else 0.0
        regression_part = (
            beta["const"]
            + beta["decentralization"] * dec_series.values
            + beta["attractiveness"] * per["attractiveness"].values
            + beta["size"] * per["size"].values
            + beta["illiquidity"] * per["illiquidity"].values
            + beta["market_volatility"] * mv
            + beta["market_shocks"] * shocks
            + beta["hyfi"] * hyfi
            + beta["hyfi_x_market_volatility"] * hyfi * mv
            + alphas[i]
        )
        noise = rng.normal(0.0, sigma_i[i], size=n)
        missing = ~np.isfinite(regression_part)
        pr = np.full(n, np.nan)
        defined = np.flatnonzero(~missing)
        if params.phi == 0.0:
            pr[defined] = regression_part[defined] + noise[defined]
        else:
            # the chain starts from the first defined day's steady state
            previous = regression_part[defined[0]] / (1.0 - params.phi) if defined.size else 0.0
            for t in defined:
                pr[t] = previous = regression_part[t] + params.phi * previous + noise[t]
        per["price_risk"] = mx.MetricSeries(meta.symbol, "price_risk", dates, pr, missing)

    truth = {**params.beta, "phi": params.phi, "sigma_alpha": params.sigma_alpha,
             "sigma_i": sigma_i}
    return SimulatedPanel(metas=metas, bundle=bundle, truth=truth, params=params, seed=seed)


def _write_csv(path, header, rows):
    """The one CSV table writer: rows ended by ``\n``, floats as
    ``repr(float(v))`` so that they read back bit for bit (no float repr needs
    quoting), every other cell as ``str`` quoted by ``csv_cell``."""
    with open(path, "w", newline="") as handle:
        for row in itertools.chain([header], rows):
            handle.write(",".join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else csv_cell(str(v))
                for v in row
            ) + "\n")


def _write_tables(directory, files):
    """The one bundle writer: ``files`` maps a file name under ``directory``,
    which is created, to text, written as it is, or to ``(header, rows)``,
    written by ``_write_csv``."""
    os.makedirs(directory, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(directory, name)
        if isinstance(content, str):
            with open(path, "w") as handle:
                handle.write(content)
        else:
            _write_csv(path, *content)


def write_meta_csv(metas, path):
    _write_csv(path, META_HEADER, ([meta.symbol] + format_meta_cells(meta) for meta in metas))


def write_simulation(sim, outdir):
    """Write metrics.csv, meta.csv and a process manifest for a simulation."""
    os.makedirs(outdir, exist_ok=True)
    write_metrics_csv(sim.bundle, os.path.join(outdir, "metrics.csv"))
    write_meta_csv(sim.metas, os.path.join(outdir, "meta.csv"))
    lines = [
        "panelcrypt synthetic panel",
        f"version = {__version__}",
        f"seed = {sim.seed}",
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
        f"  market_volatility: {mx.VOLATILITY_WINDOW}-day rolling sd of index log returns,"
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


def _job_rows(fragment):
    """``(job, coefficient rows, fit-stat rows)`` of each baseline job, its
    fit-stat rows ending with the Hausman test of its static or dynamic pair."""
    for job in BASELINE_JOBS:
        fit = fragment.fits[job]
        test = fragment.hausman[job.split("_")[0]]
        yield job, _coefficient_rows(fit), _fitstat_rows(job, fit, test)


def _summary_block(fragment):
    """Fixed-width text table mirroring the published layout, at 4 decimals:
    the coefficient and fit-stat rows of the four jobs side by side, terms in
    first-seen order and ``-`` where a job lacks a term."""
    width = 24
    cells, stats = {}, {}
    for job, coefficients, fitstats in _job_rows(fragment):
        cells[job] = {term: (f"{est:.4f}{mark}", f"({se:.4f})")
                      for term, est, se, mark in coefficients}
        stats[job] = {name: value for _, name, value in fitstats}
        stats[job]["n_days"] = fragment.n_days[job]
    jobs = list(cells)

    def line(caption, texts):
        return caption.ljust(width) + "".join(text.ljust(width) for text in texts)

    header = line("", jobs)
    lines = [header, "-" * len(header)]
    for term in dict.fromkeys(term for job in jobs for term in cells[job]):
        pairs = [cells[job].get(term, ("-", "")) for job in jobs]
        lines += [line(term, [est for est, _ in pairs]), line("", [se for _, se in pairs])]
    for caption, part in (("cross_section_random", "alpha"),
                          ("idiosyncratic_random", "idiosyncratic")):
        lines.append(line(caption, [
            f"SD {stats[job][f'sd_{part}']:.4f} Rho {stats[job][f'rho_{part}']:.4f}"
            if f"sd_{part}" in stats[job] else "-"
            for job in jobs
        ]))
    for label in ("static", "dynamic"):
        test = stats[f"{label}_random"]
        lines.append(f"hausman_{label}".ljust(width) + f"{test['hausman_stat']:.4f}"
                     f" [{test['hausman_p']:.4f}] df={test['hausman_df']:.0f}")
    for name, spec in (("adj_r2", ".4f"), ("nobs", ".0f"), ("n_entities", ".0f"),
                       ("n_days", ".0f")):
        lines.append(line(name, [format(stats[job][name], spec) for job in jobs]))
    return "\n".join(lines) + "\n"


def _volatility_scale(design):
    return float(design.column("market_volatility").std(ddof=1))


def load_inputs(config):
    """Panel mode computes metrics from raw data; metrics mode loads them and
    refuses a meta entity without ``ENTITY_METRICS`` or a market without ``MARKET_METRICS``."""
    panel = None
    if config.panel is not None:
        panel = load_panel_csv(config.panel)
        bundle = mx.compute_all_metrics(panel)
        metas = list(panel.entities)
    else:
        bundle = read_metrics_csv(config.metrics_file)
        metas = read_meta_csv(config.meta)
        required = [(meta.symbol, ENTITY_METRICS) for meta in metas]
        for symbol, names in required + [(MARKET_SYMBOL, MARKET_METRICS)]:
            for name in names:
                if name not in bundle.get(symbol, {}):
                    raise ValueError(
                        f"{config.metrics_file}: entity {symbol} has no {name} rows")
    return metas, bundle, panel


def _ledger_line(job, ledger):
    return (f"job {job}: rows_in={ledger.rows_in} rows_used={ledger.rows_used}"
            f" dropped={ledger.dropped}")


def _baseline_tables(fragment):
    coefficient_rows, fitstat_rows = [], []
    for job, coefficients, fitstats in _job_rows(fragment):
        coefficient_rows += [(job,) + row for row in coefficients]
        fitstat_rows += fitstats
    for job, per_column in sorted(fragment.long_run.items()):
        for name, (est, se) in per_column.items():
            coefficient_rows.append((f"{job}_long_run", name, est, se, stars(est, se)))
    return {
        "baseline_coefficients.csv": (("fit", "term", "estimate", "se", "stars"),
                                      coefficient_rows),
        "baseline_fitstats.csv": (("fit", "statistic", "value"), fitstat_rows),
        "baseline_summary.txt": _summary_block(fragment),
    }


def _quantile_tables(fragment):
    fits = sorted(fragment.fits.items())
    rows, fitstats = [], []
    for tau, fit in fits:
        terms, stats = _quantile_rows(fit)
        rows += [(float(tau),) + row for row in terms]
        fitstats += [(float(tau),) + row for row in stats]
    return {
        "quantile_coefficients.csv": (("tau", "term", "estimate", "se", "stars"), rows),
        "quantile_fitstats.csv": (("tau", "statistic", "value"), fitstats),
        "quantile_path.csv": (("tau", "term", "estimate", "se"), _path_rows(fits)),
    }


def _split_tables(split):
    rows, fitstats = [], []
    for period, fragment in (("pre", split.pre), ("post", split.post)):
        for job, coefficients, job_stats in _job_rows(fragment):
            rows += [(period, job) + row for row in coefficients]
            fitstats += [(period,) + row for row in job_stats]
            fitstats.append((period, job, "n_days", float(fragment.n_days[job])))
    return {
        "split_coefficients.csv": (("period", "fit", "term", "estimate", "se", "stars"), rows),
        "split_fitstats.csv": (("period", "fit", "statistic", "value"), fitstats),
    }


def run_report(config):
    """Run every battery, then write the report bundle: ``tables/``,
    ``figures/`` and ``manifest.txt``.  A battery that fails raises before
    anything is written.

    scipy's solvers are loaded first, so that their import is charged to the
    report itself and not to whichever battery solves first."""
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

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

    # the diagnostics and every design below read this one table
    table = design_table(metas, bundle)
    tables = _emit_diagnostics(metas, bundle, table, panel)
    manifest.append("job diagnostics: " + ", ".join(f"tables/{name}" for name in tables))
    del bundle, panel  # every battery below reads ``table``

    baseline = run_baseline(metas, table)
    tables.update(_baseline_tables(baseline))
    manifest += [_ledger_line(f"baseline/{job}", baseline.ledgers[job]) for job in BASELINE_JOBS]

    quantiles = run_quantiles(metas, table, config.taus)
    tables.update(_quantile_tables(quantiles))
    manifest.append(_ledger_line("quantiles", quantiles.ledger))
    for tau, message in sorted(quantiles.errors.items()):
        manifest.append(f"job quantiles tau={tau}: FAILED {message}")

    split = run_split(metas, table, config.split_date)
    tables.update(_split_tables(split))
    manifest.append(
        f"job split: split_date={split.split_date}"
        f" pre_days={split.pre.n_days['static_fixed']}"
        f" post_days={split.post.n_days['static_fixed']}"
    )

    design, _ = build_design(metas, table, BASELINE_SPECS["static_fixed"])
    scale = _volatility_scale(design)
    figures = emit_figures(baseline, quantiles, split, scale)
    manifest.append(f"job figures: volatility_scale={scale!r} files={list(figures)}")

    outdir = config.out
    _write_tables(os.path.join(outdir, "tables"), tables)
    _write_tables(os.path.join(outdir, "figures"), figures)
    _write_tables(outdir, {"manifest.txt": "\n".join(manifest) + "\n"})
    return outdir


def _emit_diagnostics(metas, bundle, table, panel=None):
    """The descriptives, correlations, unit-root and dependence tables,
    ``{name: (header, rows)}``.  ``table`` is the ``design_table`` of
    ``metas`` in ``bundle``; the correlations and hyfi read its entity-day
    rows.

    With the raw ``panel``, the descriptives add ``attention_raw``, the
    present untransformed search interest, if any value is present.  A
    variable that cannot be described raises, naming it; a descriptives
    row's ``flags`` cell holds ``describe``'s flags joined by ``;`` (for
    example ``degenerate`` where skewness and kurtosis are NaN).  A failed
    CIPS or ADF test is a ``cips_error`` or ``adf_error`` row.
    """
    calendar = date_union([s.dates for per in bundle.values() for s in per.values()])

    per_entity_matrix = {
        name: np.vstack([_aligned(bundle[meta.symbol][name], calendar)[0] for meta in metas])
        for name in ENTITY_METRICS
    }
    extra = {}
    if panel is not None:
        records = [panel.observations[meta.symbol] for meta in metas]
        attention = np.concatenate([rec.values["attention"][~rec.missing["attention"]]
                                    for rec in records])
        if len(attention):
            extra["attention_raw"] = attention

    def pooled(name):
        """The pooled values of one variable, built when ``describe`` reads
        them, so that one variable's copy is held at a time."""
        if name in extra:
            return extra[name]
        if name in MARKET_METRICS:
            return bundle[MARKET_SYMBOL][name].present_values()
        if name == "hyfi":
            return table.columns["hyfi"][0]
        return np.concatenate([bundle[meta.symbol][name].present_values() for meta in metas])

    descriptives = []
    for name in ["price_risk"] + list(CONTROLS) + ["hyfi"] + list(extra):
        try:
            row = diag.describe(pooled(name))
        except ValueError as exc:
            raise ValueError(f"descriptives: {name}: {exc}") from None
        descriptives.append((name, row.mean, row.median, row.maximum, row.minimum,
                             row.std_dev, row.skewness, row.kurtosis, float(row.nobs),
                             ";".join(row.flags)))

    matrix, labels = diag.correlation_matrix(
        [table.columns[name][0] for name in CONTROLS], list(CONTROLS)
    )

    unit_rows = []
    for name in ENTITY_METRICS:
        try:
            result = diag.cips(per_entity_matrix[name], entity_labels=[m.symbol for m in metas])
            unit_rows.append(
                (name, "cips", result.statistic, result.truncated_statistic,
                 result.stars, float(result.nobs))
            )
        except ValueError as exc:
            unit_rows.append((name, "cips_error", float("nan"), float("nan"), str(exc), 0.0))
    for name in MARKET_METRICS:
        try:
            result = diag.adf(bundle[MARKET_SYMBOL][name].present_values())
            unit_rows.append(
                (name, "adf", result.statistic, float("nan"), result.stars, float(result.nobs))
            )
        except ValueError as exc:
            unit_rows.append((name, "adf_error", float("nan"), float("nan"), str(exc), 0.0))

    dep_results = diag.dependence_tests(
        per_entity_matrix["price_risk"], entity_labels=[m.symbol for m in metas]
    )
    return {
        "descriptives.csv": (("variable", "mean", "median", "maximum", "minimum", "std_dev",
                              "skewness", "kurtosis", "nobs", "flags"), descriptives),
        "correlations.csv": (("variable",) + tuple(labels),
                             [(label, *row) for label, row in zip(labels, matrix)]),
        "unit_roots.csv": (("variable", "test", "statistic", "truncated", "stars", "nobs"),
                           unit_rows),
        "dependence.csv": (("test", "statistic", "p_value", "pairs"),
                           [(r.name, r.statistic, r.p_value, float(r.pair_count))
                            for r in dep_results]),
    }

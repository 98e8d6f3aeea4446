"""Correctness checks and failed-operation accounting for a report bundle.

An operation is one fit, test or tau that the bundle reports.  It fails when
the bundle marks it failed (a ``FAILED`` manifest line or a ``*_error`` row),
when a number it should carry is not finite, or when a check below rejects it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

BASELINE_JOBS = ("static_random", "static_fixed", "dynamic_random", "dynamic_fixed")
HAUSMAN = {"static": "static_fixed", "dynamic": "dynamic_fixed"}
PERIODS = ("baseline", "pre", "post")
UNIT_ROOT_VARIABLES = ("price_risk", "decentralization", "attractiveness", "size",
                       "illiquidity", "market_volatility", "market_shocks")
DEPENDENCE_TESTS = ("BP-LM", "scaled-LM", "bias-corrected-LM", "Pesaran-CD")
TRUTH_SE = 5.0              # static_fixed coefficients within this many SE of the truth


def bundle_digest(outdir):
    """(sha256 over relative paths and bytes, total bytes, file count)."""
    digest = hashlib.sha256()
    total = count = 0
    for root, _, names in sorted(os.walk(outdir)):
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                data = handle.read()
            digest.update(os.path.relpath(path, outdir).encode() + b"\0")
            digest.update(hashlib.sha256(data).digest())
            total += len(data)
            count += 1
    return digest.hexdigest(), total, count


def _rows(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def read_truth(manifest_path):
    """Coefficients listed under ``coefficients:`` in a simulation manifest."""
    truth, inside = {}, False
    with open(manifest_path) as handle:
        for line in handle:
            if line.rstrip() == "coefficients:":
                inside = True
            elif inside and line.startswith("  ") and "=" in line:
                key, _, value = line.partition("=")
                truth[key.strip()] = float(value)
            elif inside:
                break
    return truth


def operations(outdir, taus):
    """Every operation the bundle reports, as ``{op: [failure reasons]}``.

    Ops: ``fit:<period>/<job>``, ``hausman:<period>/<label>``, ``tau:<tau>``,
    ``unit_root:<variable>`` and ``dependence:<test>``; an empty list means
    the operation succeeded.
    """
    tables = os.path.join(outdir, "tables")
    ops = {}
    for period in PERIODS:
        for job in BASELINE_JOBS:
            ops[f"fit:{period}/{job}"] = []
        for label in HAUSMAN:
            ops[f"hausman:{period}/{label}"] = []
    for tau in taus:
        ops[f"tau:{tau:g}"] = []
    for variable in UNIT_ROOT_VARIABLES:
        ops[f"unit_root:{variable}"] = []
    for test in DEPENDENCE_TESTS:
        ops[f"dependence:{test}"] = []

    seen = set()
    coefficient_rows = [("baseline", r) for r in _rows(os.path.join(tables, "baseline_coefficients.csv"))]
    coefficient_rows += [(r["period"], r) for r in _rows(os.path.join(tables, "split_coefficients.csv"))]
    for period, row in coefficient_rows:
        job = row["fit"].removesuffix("_long_run")
        op = f"fit:{period}/{job}"
        seen.add(op)
        if not (_finite(row["estimate"]) and _finite(row["se"])):
            ops.setdefault(op, []).append(f"non-finite {row['term']}")
    fitstat_rows = [("baseline", r) for r in _rows(os.path.join(tables, "baseline_fitstats.csv"))]
    fitstat_rows += [(r["period"], r) for r in _rows(os.path.join(tables, "split_fitstats.csv"))]
    for period, row in fitstat_rows:
        for label, job in HAUSMAN.items():
            if row["fit"] == job and row["statistic"] in ("hausman_stat", "hausman_p"):
                op = f"hausman:{period}/{label}"
                seen.add(op)
                if not _finite(row["value"]):
                    ops.setdefault(op, []).append(f"non-finite {row['statistic']}")

    for row in _rows(os.path.join(tables, "quantile_coefficients.csv")):
        op = f"tau:{float(row['tau']):g}"
        seen.add(op)
        if not (_finite(row["estimate"]) and _finite(row["se"])):
            ops.setdefault(op, []).append(f"non-finite {row['term']}")
    for row in _rows(os.path.join(tables, "quantile_fitstats.csv")):
        if row["statistic"] == "pseudo_r2" and not _finite(row["value"]):
            ops.setdefault(f"tau:{float(row['tau']):g}", []).append("non-finite pseudo_r2")
    manifest = os.path.join(outdir, "manifest.txt")
    if os.path.exists(manifest):
        with open(manifest) as handle:
            lines = handle.readlines()
        for line in lines:
            if line.startswith("job quantiles tau=") and "FAILED" in line:
                tau = float(line.split("=", 1)[1].split(":", 1)[0])
                op = f"tau:{tau:g}"
                seen.add(op)
                ops.setdefault(op, []).append("FAILED")

    for row in _rows(os.path.join(tables, "unit_roots.csv")):
        op = f"unit_root:{row['variable']}"
        seen.add(op)
        if row["test"].endswith("_error"):
            ops.setdefault(op, []).append(row["test"])
        elif not _finite(row["statistic"]):
            ops.setdefault(op, []).append("non-finite statistic")
    for row in _rows(os.path.join(tables, "dependence.csv")):
        op = f"dependence:{row['test']}"
        seen.add(op)
        if not (_finite(row["statistic"]) and _finite(row["p_value"])):
            ops.setdefault(op, []).append("non-finite statistic")

    for op, reasons in ops.items():
        if op not in seen:
            reasons.append("missing from bundle")
    return ops


def check_truth(outdir, truth, ops):
    """Reject the baseline static_fixed fit if a slope coefficient sits more
    than TRUTH_SE standard errors from the simulated truth.

    The fixed-effects ``const`` row is the mean entity effect, which also
    carries the mean of the drawn entity effects, so it has no listed truth.
    """
    for row in _rows(os.path.join(outdir, "tables", "baseline_coefficients.csv")):
        if row["fit"] != "static_fixed" or row["term"] == "const" or row["term"] not in truth:
            continue
        est, se = float(row["estimate"]), float(row["se"])
        if abs(est - truth[row["term"]]) > TRUTH_SE * se:
            ops["fit:baseline/static_fixed"].append(f"{row['term']} beyond {TRUTH_SE:g} SE")


def check_loss(residuals, tau):
    # written out here rather than imported, so the check does not rest on
    # the code it checks
    return float(np.sum(residuals * (tau - (residuals < 0.0))))


def check_quantiles(outdir, design, ops, rel_tol=1e-9):
    """Subgradient check of every finite quantile fit: moving any single
    coefficient a little either way must not lower the check loss."""
    X, y = design.matrix, design.response
    by_tau = {}
    for row in _rows(os.path.join(outdir, "tables", "quantile_coefficients.csv")):
        by_tau.setdefault(float(row["tau"]), {})[row["term"]] = (float(row["estimate"]), float(row["se"]))
    for tau, terms in by_tau.items():
        reasons = ops.setdefault(f"tau:{tau:g}", [])
        if reasons:
            continue
        if set(terms) != set(design.columns):
            reasons.append("terms differ from the design")
            continue
        beta = np.array([terms[c][0] for c in design.columns])
        se = np.array([terms[c][1] for c in design.columns])
        base = check_loss(y - X @ beta, tau)
        tol = rel_tol * max(1.0, base)
        for j, column in enumerate(design.columns):
            step = 0.01 * se[j] if se[j] > 0 else 1e-6 * max(1.0, abs(beta[j]))
            for sign in (1.0, -1.0):
                moved = beta.copy()
                moved[j] += sign * step
                if check_loss(y - X @ moved, tau) < base - tol:
                    reasons.append(f"check loss falls along {'+' if sign > 0 else '-'}{column}")

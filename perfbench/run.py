"""End-to-end and per-layer benchmark of ``panelcrypt report``.

    python3 perfbench/run.py --workload default --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout.  The program runs from ``src/`` in
fresh processes and only ever sees the files the workload generates from
``--seed``.  An untraced run (``--trace 0``) times the workload's setup
command three times, then repeats ``panelcrypt report`` until ``--seconds``
have passed, and reports medians.  A traced run (``--trace 1``) runs setup
and report once each under ``tracer.py`` and reports per-layer calls, self
times and counts; it also runs one untraced report, and the tracing
overhead is the traced report's wall time minus the untraced one's.  Both
check every bundle outside the timed region.  The last line of standard output is one JSON
object; the metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import rawgen  # noqa: E402
import tracer  # noqa: E402

TAUS = (0.10, 0.25, 0.50, 0.75, 0.90)
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# One BLAS thread: on a 2-CPU machine a second thread made the default report
# ~40% slower and noisier, and the thread count changes the bundle's last digits.
BLAS_THREADS = "1"

REPORT_CONFIG = """\
{inputs}
out = out/
seed = {seed}
split_date = 2022-05-07
taus = 0.10,0.25,0.50,0.75,0.90
"""
SYNTHETIC_INPUTS = "metrics = inputs/metrics.csv\nmeta = inputs/meta.csv"
WIDE_PARAMS = "n_entities = 150\nuse_benchmark_universe = false\n"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "default": {
        "setup": ["simulate", "--seed", "{seed}", "--out", "inputs"],
        "inputs": SYNTHETIC_INPUTS,
    },
    "wide": {
        "setup": ["simulate", "--params", "wide.params", "--seed", "{seed}", "--out", "inputs"],
        "inputs": SYNTHETIC_INPUTS,
    },
    "raw_ingest": {
        "setup": ["ingest", "--meta", "raw/meta.csv", "--market", "raw/market.csv",
                  "--entities", "raw/entities", "--out", "inputs/panel.csv"],
        "inputs": "panel = inputs/panel.csv",
    },
}

# span names whose calls and self time are reported per layer
LAYER_SPANS = [f"{m}.{p}" for m, p, _ in tracer.ENTRY_POINTS] + ["cli.main"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv, cwd, log):
    """Run one process to completion; return (wall s, peak RSS MB, exit code).

    The wall time covers interpreter start and imports.  Peak RSS is the
    child's own, from wait4.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def check_exit(code, what, log):
    """Raise with the end of the children's log when a child failed; the
    work directory and its log are removed when the run ends."""
    if code != 0:
        tail = log.read_text(errors="replace")[-3000:]
        raise RuntimeError(f"{what} exited with {code}; its output ends:\n{tail}")


def cli(args):
    return [sys.executable, "-m", "panelcrypt.cli", *args]


def traced(spans_path, args):
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *args]


def tree_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def code_digest():
    """Digest of the program and of this benchmark, which sets the run's environment."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "panelcrypt").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def prepare(workload, seed, work):
    """Write the workload's generated inputs and report config under ``work``."""
    spec = WORKLOADS[workload]
    (work / "inputs").mkdir(parents=True)
    if workload == "wide":
        (work / "wide.params").write_text(WIDE_PARAMS)
    if workload == "raw_ingest":
        rawgen.generate(str(work / "raw"), seed)
    (work / "run.cfg").write_text(REPORT_CONFIG.format(inputs=spec["inputs"], seed=seed))
    return [a.format(seed=seed) for a in spec["setup"]]


def quantile_design(work):
    """The report's quantile design, rebuilt from the same inputs by the program."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from panelcrypt import pipeline

    cwd = os.getcwd()
    os.chdir(work)
    try:
        config = pipeline.parse_config("run.cfg")
        metas, bundle, _panel = pipeline.load_inputs(config)
        design, _ledger = pipeline.build_design(metas, bundle, pipeline.quantile_spec(config))
    finally:
        os.chdir(cwd)
    return design


def check_bundle(workload, work):
    """Failure reasons per operation of the bundle in ``work/out``."""
    out = work / "out"
    ops = checks.operations(str(out), TAUS)
    if workload in ("default", "wide"):
        checks.check_truth(str(out), checks.read_truth(work / "inputs" / "manifest.txt"), ops)
    checks.check_quantiles(str(out), quantile_design(work), ops)
    return ops


def rows_in(work):
    for line in (work / "out" / "manifest.txt").read_text().splitlines():
        if line.startswith("job quantiles:"):
            return int(line.split("rows_in=")[1].split()[0])
    raise ValueError("manifest has no quantile job line")


def remember_digest(workload, seed, digest):
    """True unless an earlier run of this code and seed wrote different bytes."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}:{seed}:{code_digest()}"
    previous = known.setdefault(key, digest)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return previous == digest


def untraced(workload, seed, seconds, work, setup):
    log = work / "children.log"
    setup_walls, setup_digests = [], set()
    for _ in range(SETUP_REPEATS):
        wall, _rss, code = run_child(cli(setup), work, log)
        check_exit(code, "setup", log)
        setup_walls.append(wall)
        setup_digests.add(checks.bundle_digest(str(work / "inputs"))[0])
    os.sync()   # write the inputs back now, not during the first timed report

    walls, rss, digests = [], [], set()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        shutil.rmtree(work / "out", ignore_errors=True)
        wall, peak, code = run_child(cli(["report", "--config", "run.cfg"]), work, log)
        check_exit(code, "report", log)
        walls.append(wall)
        rss.append(peak)
        digests.add(checks.bundle_digest(str(work / "out"))[0])

    report_s = statistics.median(walls)
    metrics = {
        "report_s": report_s,
        "setup_s": statistics.median(setup_walls),
        "rows_per_s": rows_in(work) / report_s,
        "peak_rss_mb": statistics.median(rss),
    }
    deterministic = len(setup_digests) == 1 and len(digests) == 1
    info = {"reports": len(walls), "setups": len(setup_walls), "digests": digests,
            "deterministic": deterministic, "walls": walls, "setup_walls": setup_walls}
    return metrics, info


def layer_metrics(traces, walls):
    """Per-layer calls, self times and counts from the traced processes."""
    m = {f"{name}.{kind}": 0 for name in LAYER_SPANS for kind in ("calls", "self_s")}
    m.update({"diagnostics.cips.errors": 0, "diagnostics.dependence_tests.pairs": 0,
              "pipeline.build_design.rows_out": 0, "estimators.flags": 0,
              "quantreg.iterations": 0, "quantreg.nonfinite_fits": 0})
    m.update({f"quantreg.iterations.tau{tau:.2f}": 0 for tau in TAUS})
    spans_total, self_total = 0, 0.0
    for trace in traces:
        spans = trace["spans"]
        for (name, _start, _end, _parent, attrs), self_s in zip(spans, tracer.self_times(spans)):
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += self_s
            self_total += self_s
            if name == "diagnostics.cips":
                m["diagnostics.cips.errors"] += attrs.get("error", 0)
            m["diagnostics.dependence_tests.pairs"] += attrs.get("pairs", 0)
            m["pipeline.build_design.rows_out"] += attrs.get("rows_out", 0)
            m["estimators.flags"] += attrs.get("flags", 0)
            if "iterations" in attrs:
                m["quantreg.iterations"] += attrs["iterations"]
                m[f"quantreg.iterations.tau{attrs['tau']:.2f}"] += attrs["iterations"]
                m["quantreg.nonfinite_fits"] += attrs["nonfinite"]
        spans_total += len(spans)
    m["trace.spans"] = spans_total
    m["trace.unattributed_s"] = sum(walls) - self_total
    return m


def traced_run(work, setup):
    log = work / "children.log"
    setup_spans, report_spans = work / "setup.spans.json", work / "report.spans.json"
    setup_wall, _rss, code = run_child(traced(setup_spans, setup), work, log)
    check_exit(code, "traced setup", log)
    plain_wall, _rss, code = run_child(cli(["report", "--config", "run.cfg"]), work, log)
    check_exit(code, "report", log)
    plain_digest = checks.bundle_digest(str(work / "out"))[0]
    shutil.rmtree(work / "out")
    report_wall, _rss, code = run_child(
        traced(report_spans, ["report", "--config", "run.cfg"]), work, log)
    check_exit(code, "traced report", log)
    traces = [json.loads(p.read_text()) for p in (setup_spans, report_spans)]
    metrics = layer_metrics(traces, [setup_wall, report_wall])
    digest, size, files = checks.bundle_digest(str(work / "out"))
    metrics.update({
        "cli.import_s": traces[1]["import_s"],
        "trace.setup_s": setup_wall,
        "trace.report_s": report_wall,
        "trace.overhead_s": report_wall - plain_wall,
        "pipeline.bundle_bytes": size,
        "pipeline.bundle_files": files,
    })
    info = {"reports": 1, "setups": 1, "digests": {digest},
            "deterministic": digest == plain_digest}
    return metrics, info


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds: the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "panelcrypt" / "cli.py").is_file():
        print(f"error: no panelcrypt sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = prepare(args.workload, args.seed, work)
        setup_bytes = tree_bytes(work / "raw") if args.workload == "raw_ingest" else 0
        if args.trace:
            metrics, info = traced_run(work, setup)
        else:
            metrics, info = untraced(args.workload, args.seed, args.seconds, work, setup)
        ops = check_bundle(args.workload, work)
        input_bytes = tree_bytes(work / "inputs")
        meta = work / ("raw" if args.workload == "raw_ingest" else "inputs") / "meta.csv"
        entities = len(meta.read_text().splitlines()) - 1
        rows = rows_in(work)
        digest = min(info["digests"])
        correct = info["deterministic"] and remember_digest(args.workload, args.seed, digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops = {op: why for op, why in ops.items() if why}
    attempted = len(ops) * info["reports"]
    failed = len(failed_ops) * info["reports"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reports {info['reports']}  setups {info['setups']}  nproc {os.cpu_count()}  "
          f"blas_threads {BLAS_THREADS}")
    if "walls" in info:
        print(f"report walls {[round(w, 3) for w in info['walls']]}  "
              f"setup walls {[round(w, 3) for w in info['setup_walls']]}")
    print(f"inputs: rows {rows}  entities {entities}  "
          f"program input bytes {input_bytes}  raw bytes {setup_bytes}")
    out = {}
    for spec in declared:
        value = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<40} {value!r} {spec['unit']}")
    print(f"{'failed_share':<40} {failed / attempted!r} share "
          f"({len(failed_ops)} of {len(ops)} operations per report)")
    for op, why in sorted(failed_ops.items()):
        print(f"  failed {op}: {'; '.join(why)}")
    print(f"bundle sha256 {digest}  deterministic {correct}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

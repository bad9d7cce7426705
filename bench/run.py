"""The skeinlab benchmark: cold-start batch workloads, timed end to end and traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

A run measures one workload.  It launches fresh interpreters one after
another (`bench/worker.py`), each running one batch of jobs from cold
caches, as one `skeinlab` invocation would.  The batches make passes over
the workload's fixed corpus in a seeded order; the workload's minimum
number of passes runs (two on `tangles` and `homs`, else one), and
another starts only if it is expected to end within `--seconds` (with a
small slack).  Load is one client, one thread, closed loop.  With
`--trace 0` it reports the end-to-end metrics, with `--trace 1` it runs
the first batches of a pass plain and traced, in alternating order, and
reports the per-layer metrics and the tracing overhead.

Job times are gated in ref-ms: a job's wall time over the time per
iteration of a fixed reference loop sampled during and around it in the
same process (`worker.py`), so that they do not move with the machine's
speed; the wall-time figures are printed beside them.  Every job's
result is checked against an oracle; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}, and the
exit code is nonzero if any job failed.  `--all` runs every workload and
prints one table.  Full records and spans go to `.bench_out/` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

WORKLOADS = ("tangles", "products", "homs", "reach")
# setup-only launches per untraced run, on top of one per batch
SETUP_PROBES = 6
# passes over the corpus: at least one, and no further pass that is
# expected to end after SLACK * --seconds
SLACK = 1.15
# batches of a traced run, from the start of the first pass
TRACE_BATCHES = 2
# plain and traced runs of one batch compared for the tracing overhead:
# one pair per traced batch, further pairs up to OVERHEAD_PAIRS while they
# fit in the budget
OVERHEAD_PAIRS = 3
OVERHEAD_BUDGET_S = 40
# every run ends within this many seconds
RUN_LIMIT_S = 170


class BenchError(Exception):
    """A batch could not run to completion; the run reports no result."""


def launch(workload, seed, batch, deadline, trace=False, setup_only=False, spans=None):
    """Run one worker to completion and return its record, timed from launch."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--batch", str(batch)]
    cmd += ["--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - start)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} batch {batch} ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} batch {batch} exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_wall_s"] = record["ready"] - start
    seconds, iterations = record["setup_window"]
    record["setup_ref_s"] = record["setup_wall_s"] / (1000 * seconds / iterations)
    return record


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, q):
    """Harrell-Davis estimate of the q-th quantile (0 < q < 1).

    A weighted mean of all order statistics, with beta-distribution weights
    centred on q.  Unlike a single order statistic it does not jump when
    the quantile falls in a gap between job sizes.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def ref_ms(batch):
    """Each job's time in ref-ms: its wall time over the reference loop's time per iteration.

    The reference samples are those taken during the job and shortly
    before and after it (`worker.SpeedSampler`).
    """
    return [latency * n / seconds for latency, (seconds, n) in zip(batch["latencies"], batch["ref"])]


def measure(workload, seed, seconds):
    """The end-to-end metrics of one untraced run, and its raw record.

    Latency percentiles are taken within each pass, over its distinct jobs,
    and the median over passes is reported, so that they do not depend on
    how many passes fitted in the run.  The wall-time figures go to the
    record; the gated ones are in ref-ms.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probes = [launch(workload, seed, 0, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    n_batches = probes[0]["batches_per_pass"]
    t0 = time.monotonic()
    passes = []
    while True:
        first = len(passes) * n_batches
        passes.append([launch(workload, seed, first + i, deadline) for i in range(n_batches)])
        elapsed = time.monotonic() - t0
        done = len(passes)
        if done >= probes[0]["min_passes"] and elapsed * (done + 1) / done > SLACK * seconds:
            break
    batches = [b for p in passes for b in p]
    latencies = [x for b in batches for x in b["latencies"]]
    costs = [x for b in batches for x in ref_ms(b)]
    per_pass = [[x for b in p for x in b["latencies"]] for p in passes]
    cost_per_pass = [[x for b in p for x in ref_ms(b)] for p in passes]
    failures = [dict(f, batch=i) for i, b in enumerate(batches) for f in b["failures"]]
    setups = probes + batches
    metrics = {
        "setup_s": (statistics.median(r["setup_ref_s"] for r in setups), "s"),
        "jobs_per_ref_s": (1000 * len(costs) / sum(costs), "1/ref-s"),
        "job_p50_ref_ms": (statistics.median(percentile(p, 0.5) for p in cost_per_pass), "ref-ms"),
        "job_p90_ref_ms": (statistics.median(percentile(p, 0.9) for p in cost_per_pass), "ref-ms"),
        "peak_rss_mb": (statistics.median(b["maxrss_kb"] for b in batches) / 1024, "MB"),
    }
    wall = {
        "setup_wall_s": (statistics.median(r["setup_wall_s"] for r in setups), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": (1000 * statistics.median(percentile(p, 0.5) for p in per_pass), "ms"),
        "job_p90_ms": (1000 * statistics.median(percentile(p, 0.9) for p in per_pass), "ms"),
        "ref_iteration_ms": (
            1000 * sum(b["ref_samples"][0] for b in batches) / sum(b["ref_samples"][1] for b in batches),
            "ms",
        ),
    }
    record = {
        "passes": len(passes),
        "batches": len(batches),
        "jobs": len(latencies),
        "setup_samples": [[r["setup_wall_s"], r["setup_ref_s"]] for r in setups],
        "run_wall_s": time.monotonic() - start,
        "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "latencies_s": latencies,
        "costs_ref_ms": costs,
        "ref": [b["ref"] for b in batches],
        "failures": failures,
    }
    return metrics, record


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "trace_overhead_frac":
        return "ratio"
    return "count"


def measure_layers(workload, seed):
    """Per-layer metrics of the first batches of a pass, and the tracer's overhead.

    A fixed number of batches, whatever `--seconds` says, so that the
    counters repeat exactly; they come from the first traced run of each
    batch.  Each of these batches runs once plain as well, and further
    plain/traced pairs of the same batches follow while they fit in
    OVERHEAD_BUDGET_S, up to OVERHEAD_PAIRS; the order within a pair
    alternates.  `trace_overhead_frac` is the median over the pairs of
    traced job cost over plain job cost, in ref-ms, minus 1.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    n_batches = launch(workload, seed, 0, deadline, setup_only=True)["batches_per_pass"]
    n_traced = min(TRACE_BATCHES, n_batches)
    records, traced, ratios = [], [], []
    start = time.monotonic()
    for k in range(max(n_traced, OVERHEAD_PAIRS)):
        if k >= n_traced and (time.monotonic() - start) * (k + 1) / k > OVERHEAD_BUDGET_S:
            break
        batch = k % n_traced
        spans = OUT / f"spans-{workload}-seed{seed}-batch{batch}.json" if k < n_traced else None
        pair = {}
        for trace in (False, True) if k % 2 == 0 else (True, False):
            pair[trace] = launch(workload, seed, batch, deadline, trace=trace, spans=spans if trace else None)
        records += pair.values()
        if k < n_traced:
            traced.append(pair[True])
        ratios.append(sum(ref_ms(pair[True])) / sum(ref_ms(pair[False])))

    totals = {}
    for rec in traced:
        for name, value in rec["layers"].items():
            if name == "ribbon_backend.flat_apply_max_dim":
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    metrics = {name: (totals[name], layer_unit(name)) for name in metric_names() if name in totals}
    metrics["trace_overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    record = {
        "batches": len(records),
        "jobs": sum(len(r["latencies"]) for r in records),
        "overhead_ratios": ratios,
        "missing": sorted({m for r in traced for m in r["missing"]}),
        "failures": [f for r in records for f in r["failures"]],
    }
    return metrics, record


def run_one(workload, seed, seconds, trace):
    if trace:
        metrics, record = measure_layers(workload, seed)
    else:
        metrics, record = measure(workload, seed, seconds)
    OUT.mkdir(exist_ok=True)
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return metrics, record


def print_metrics(workload, metrics, record):
    attempted, failed = record["jobs"], len(record["failures"])
    print(f"{workload}: {attempted} jobs in {record['batches']} cold batches")
    if "passes" in record:
        n = attempted // record["passes"]
        print(f"  {record['passes']} passes over the corpus; latency percentiles over n = {n} jobs a pass")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for name, m in record.get("wall", {}).items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}  (wall time, not gated)")
    for f in record["failures"][:5]:
        print(f"  FAILED job {f['job']}: {f['reason'].strip().splitlines()[-1]}")


def main(argv=None):
    # SIGTERM raises SystemExit, which makes subprocess.run kill the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "skeinlab" / "__init__.py").is_file():
        print(f"bench: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.all else (args.workload,)
    attempted = failed = 0
    results = {}
    for name in names:
        try:
            metrics, record = run_one(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print_metrics(name, metrics, record)
        attempted += record["jobs"]
        failed += len(record["failures"])
        results[name] = metrics
    if args.all:
        summary = {n: {k: {"value": v, "unit": u} for k, (v, u) in m.items()} for n, m in results.items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "workloads": summary}))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[args.workload].items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

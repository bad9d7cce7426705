"""One cold batch of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --batch I [--trace 0|1]
                            [--setup-only] [--jobs K] [--spans PATH]

Imports the engine from the checkout's `src/`, builds the backends and the
job list, then runs the jobs one after another (a closed loop with one
client) and prints one JSON line: when set-up finished (`time.monotonic`,
comparable with the parent's clock), the reference speed right after it,
each job's latency and the reference samples around it, the failures, the
process's peak RSS, and with `--trace 1` the per-layer counters.

Reference speed.  The CPU this runs on can slow down by up to 2x for
seconds to minutes while a neighbour is busy, and its speed flips every
few milliseconds, so a job's wall time says as much about the machine as
about the engine.  From the end of set-up a timer signal interrupts the
batch every SAMPLE_EVERY_S and runs one iteration of a fixed reference
loop (`reference_iteration`), timed; the time it takes within a job is
taken off that job's latency.  A job's time divided by the mean time of
the samples during and around it is its cost in iterations of the loop,
which the machine's slowdown leaves unchanged; `run.py` reports it in
ref-ms (one iteration is one ref-ms).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# terms of one reference iteration: about 1 ms on an unloaded core of the
# 2-vCPU VM the benchmark was defined on
REF_TERMS = 200
# reference iterations right after set-up, for the set-up time
REF_FIRST = 60
# one reference iteration is sampled this often during a batch
SAMPLE_EVERY_S = 0.02
# a job's reference speed is the mean of the samples from this long before
# it starts until this long after it ends
SAMPLE_REACH_S = 0.2


def import_engine():
    """Import skeinlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "skeinlab" / "__init__.py").is_file():
        raise SystemExit(f"no engine source at {SRC}")
    sys.path.insert(0, str(SRC))
    import skeinlab

    if Path(skeinlab.__file__).resolve().parent != SRC / "skeinlab":
        raise SystemExit(f"skeinlab imported from {skeinlab.__file__}, not from {SRC}")


def reference_iteration():
    """Fixed pure-Python work of the engine's kind: `Fraction` arithmetic and a dict."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, REF_TERMS):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
        seen[i] = acc
    return len(seen)


def reference_window(iterations):
    """Run the reference loop `iterations` times: (seconds, iterations).

    The collector is off meanwhile, so that the loop never pays for
    collecting the engine's heap.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            reference_iteration()
        return [time.perf_counter() - start, iterations]
    finally:
        gc.enable()


class SpeedSampler:
    """Times one reference iteration on every timer signal while installed.

    The handler runs between two bytecodes of whatever is running, a job
    included; the collector is off while it runs, so that a sample never
    pays for collecting the engine's heap.
    """

    def __init__(self):
        self.starts = []
        self.seconds = []

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_iteration()
        seconds = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(seconds)

    def install(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start, end):
        """(seconds, iterations) of the samples within SAMPLE_REACH_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - SAMPLE_REACH_S)
        hi = bisect.bisect_right(self.starts, end + SAMPLE_REACH_S)
        return [sum(self.seconds[lo:hi]), hi - lo]

    def inside(self, start, end):
        """Seconds of sampling that fall within [start, end]."""
        lo = bisect.bisect_left(self.starts, start - SAMPLE_REACH_S)
        hi = bisect.bisect_right(self.starts, end)
        pairs = zip(self.starts[lo:hi], self.seconds[lo:hi])
        return sum(max(0.0, min(s + d, end) - max(s, start)) for s, d in pairs)


def run_batch(workload, jobs, tracer=None):
    """Run and check every job; an exception or a failed oracle is a failure.

    `ref[i]` is (seconds, iterations) of the reference samples during and
    around job i.
    """
    memo = {}
    spans = []
    failures = []
    sampler = SpeedSampler()
    sampler.install()
    try:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            try:
                result = workload.run(job, memo)
                reason = None
            except Exception:  # a failing job is counted, the batch goes on
                reason = traceback.format_exc(limit=3)[-400:]
            spans.append((start, time.perf_counter()))
            if tracer is not None:
                tracer.job = None  # the oracle's engine calls are not the job's work
            if reason is None:
                try:
                    reason = workload.check(job, result, memo)
                except Exception:
                    reason = traceback.format_exc(limit=3)[-400:]
            if reason is not None:
                failures.append({"job": i, "reason": reason})
        time.sleep(SAMPLE_REACH_S)  # samples after the last job, for its reference speed
    finally:
        sampler.uninstall()
    return {
        # wall time of each job, less the sampling within it
        "latencies": [end - start - sampler.inside(start, end) for start, end in spans],
        "ref": [sampler.around(start, end) for start, end in spans],
        "ref_samples": [sum(sampler.seconds), len(sampler.seconds)],
        "failures": failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--jobs", type=int, default=None, help="run only the first K jobs")
    parser.add_argument("--spans", default=None, help="write the trace's spans here")
    args = parser.parse_args(argv)

    import_engine()
    from workloads import WORKLOADS, batch_jobs, batches_per_pass, min_passes

    workload = WORKLOADS[args.workload]
    workload.setup()
    jobs = batch_jobs(workload, args.seed, args.batch)[: args.jobs]
    ready = time.monotonic()
    # the reference speed right after set-up, for the set-up time
    out = {
        "ready": ready,
        "setup_window": reference_window(REF_FIRST),
        "batches_per_pass": batches_per_pass(workload),
        "min_passes": min_passes(workload),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    out.update(run_batch(workload, jobs, tracer))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: its oracles, its tracer and its counters.

    python3 -m pytest -q bench/test_bench.py

The oracles must not be vacuous: a deliberately wrong result is counted as
a failed job.  The tracer's deterministic counters must repeat exactly
across runs of one seed and across PYTHONHASHSEED values.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import worker

worker.import_engine()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skeinlab import skein_algebra, suites  # noqa: E402
from skeinlab.ribbon_backend import UNIT, DualObj, make_backend, tensor_word  # noqa: E402
from skeinlab.surface import annulus  # noqa: E402

V, V_DUAL, ADJ = workloads.V, workloads.V_DUAL, workloads.ADJ
WORKER = Path(worker.__file__)


class Perturbed:
    """A workload whose every result is made wrong by `perturb`."""

    def __init__(self, inner, perturb):
        self.inner = inner
        self.perturb = perturb

    def run(self, job, memo):
        return self.perturb(job, self.inner.run(job, memo))

    def check(self, job, result, memo):
        return self.inner.check(job, result, memo)


def failed_jobs(workload, jobs):
    return [f["job"] for f in worker.run_batch(workload, jobs)["failures"]]


def test_unperturbed_jobs_pass():
    w = workloads.WORKLOADS["homs"]
    jobs = workloads.batch_jobs(w, 1, 0)[:12]
    assert failed_jobs(w, jobs) == []


def test_tangles_oracle_catches_a_wrong_evaluation(monkeypatch):
    original = suites.rt_evaluate
    calls = []

    def every_other_doubled(word, backend):
        calls.append(None)
        m = original(word, backend)
        return m.scale(2) if len(calls) % 2 else m

    monkeypatch.setattr(suites, "rt_evaluate", every_other_doubled)
    w = workloads.WORKLOADS["tangles"]
    jobs = [("quantum", 11), ("drinfeld", 12)]
    assert failed_jobs(w, jobs) == [0, 1]


def test_products_oracle_catches_a_scaled_product_or_sigma():
    w = workloads.WORKLOADS["products"]
    jobs = [(0, 5), (1, 5)]

    def scale(key):
        def perturb(job, r):
            r = dict(r)
            if key == "goldman":
                r[key] = type(r[key])(r[key].element.scale(2), r[key].method)
            else:
                r[key] = r[key].scale(2)
            return r

        return perturb

    assert failed_jobs(Perturbed(w, scale("product")), jobs) == [0, 1]
    # sigma vanishes on the annulus; the torus pair (1, 5) has a nonzero one
    assert failed_jobs(Perturbed(w, scale("goldman")), jobs) == [1]
    assert failed_jobs(Perturbed(w, lambda job, r: dict(r, fock_rosly=False)), jobs) == [0, 1]


def test_homs_oracle_catches_a_short_or_wrong_basis():
    w = workloads.WORKLOADS["homs"]
    space = (tensor_word((V, V, V_DUAL)), tensor_word((V, V, V_DUAL)))
    jobs = [(b, space) for b in ("classical", "epsilon", "quantum", "drinfeld")]
    assert failed_jobs(Perturbed(w, lambda job, basis: basis[:-1]), jobs) == [0, 1, 2, 3]

    def scale_deformed(job, basis):
        return basis if job[0] == "classical" else [basis[0].scale(2)] + basis[1:]

    assert failed_jobs(Perturbed(w, scale_deformed), jobs) == [1, 2, 3]


def test_reach_oracle_catches_a_scaled_product():
    # the reach oracles on a small annulus pair instead of the adj torus pair
    w = workloads.WORKLOADS["reach"]
    cl, ep = make_backend("classical"), make_backend("epsilon")
    rng = random.Random(3)
    a = skein_algebra.random_element(cl, annulus(), rng, label_pool=(1, 2))
    b = skein_algebra.random_element(cl, annulus(), rng, label_pool=(1, 2))
    product = skein_algebra.mu(a, b)
    memo = {"pair": (a, b), "classical": product}
    deformed = skein_algebra.mu(skein_algebra.lift_element(a, ep), skein_algebra.lift_element(b, ep))
    assert w.check(("classical", 0), product, memo) is None
    assert w.check(("epsilon", 0), deformed, memo) is None
    assert w.check(("classical", 0), product.scale(2), memo) is not None
    assert w.check(("epsilon", 0), deformed.scale(2), memo) is not None


def test_a_raising_job_is_counted_and_the_batch_goes_on():
    class Raising:
        def run(self, job, memo):
            if job == 0:
                raise ValueError("boom")
            return job

        def check(self, job, result, memo):
            return None

    out = worker.run_batch(Raising(), [0, 1])
    assert [f["job"] for f in out["failures"]] == [0]
    assert len(out["latencies"]) == 2


def test_expected_hom_dim_from_characters():
    vv = tensor_word((V, V))
    assert workloads.expected_hom_dim(vv, vv) == 2
    assert workloads.expected_hom_dim(UNIT, tensor_word((V, V_DUAL, V, V_DUAL))) == 2
    vva = tensor_word((V, V, ADJ))
    assert workloads.expected_hom_dim(vva, vva) == 6
    assert workloads.expected_hom_dim(UNIT, DualObj(V)) == 0


def test_percentile_is_a_smooth_quantile_estimate():
    assert run.percentile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    xs = [float(x) for x in range(1, 102)]
    assert run.percentile(xs, 0.5) == pytest.approx(51.0)
    assert 89.0 < run.percentile(xs, 0.9) < 93.0
    # a gap at the median moves the estimate by a fraction of the gap only
    gapped = [1.0] * 50 + [10.0] * 51
    assert 1.0 < run.percentile(gapped, 0.5) < 10.0


def test_corpus_batches_cover_each_item_once():
    for w in workloads.WORKLOADS.values():
        n = workloads.batches_per_pass(w)
        seen = [job for i in range(n) for job in workloads.batch_jobs(w, 7, i)]
        expanded = [job for item in w.corpus() for job in w.expand(item, random.Random(0))]
        assert sorted(map(repr, seen)) == sorted(map(repr, expanded))
        assert workloads.batch_jobs(w, 7, 0) == workloads.batch_jobs(w, 7, 0)


def test_missing_target_is_reported_not_fatal(monkeypatch):
    bogus = ("ribbon_backend.gone", "skeinlab.ribbon_backend", "BackendSpec.gone", "span", ("calls", "s"))
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (bogus,))
    original = skein_algebra.mu
    t = tracer.Tracer()
    t.install()
    try:
        assert skein_algebra.mu is not original
        t.job = 0
        make_backend("classical").invariant_hom_basis(V, V)
    finally:
        t.uninstall()
    assert skein_algebra.mu is original
    assert t.missing == ["ribbon_backend.gone"]
    metrics = t.metrics()
    assert "ribbon_backend.gone_calls" not in metrics
    assert metrics["ribbon_backend.hom_basis_calls"] == 1


def test_oracle_checks_are_not_accounted():
    class CheckedTwice:
        def run(self, job, memo):
            return make_backend("classical").invariant_hom_basis(V, V)

        def check(self, job, result, memo):
            make_backend("classical").invariant_hom_basis(V, V)
            make_backend("classical").invariant_hom_basis(V, V)
            return None

    t = tracer.Tracer()
    t.install()
    try:
        out = worker.run_batch(CheckedTwice(), [0], t)
    finally:
        t.uninstall()
    assert out["failures"] == []
    assert t.metrics()["ribbon_backend.hom_basis_calls"] == 1
    assert list(t.span_job) == [0]


DETERMINISTIC = ("_calls", "_distinct", "_max_dim", "_nnz")


def traced_counters(workload, jobs, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", "3", "--trace", "1"]
    proc = subprocess.run(cmd + ["--jobs", str(jobs)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failures"] == [] and record["missing"] == []
    return {k: v for k, v in record["layers"].items() if k.endswith(DETERMINISTIC)}


@pytest.mark.parametrize("workload,jobs", [("tangles", 2), ("products", 2), ("homs", 8)])
def test_counters_repeat_across_runs_and_hash_seeds(workload, jobs):
    first = traced_counters(workload, jobs, "0")
    assert first == traced_counters(workload, jobs, "0")
    assert first == traced_counters(workload, jobs, "1")
    assert first == traced_counters(workload, jobs, "random")
    assert first["scalars.mul_calls"] > 0


def test_ref_ms_is_unmoved_by_a_uniformly_slower_machine():
    batch = {"latencies": [0.2, 0.4], "ref": [[0.05, 50], [0.1, 100]]}
    assert run.ref_ms(batch) == pytest.approx([200.0, 400.0])
    slower = {"latencies": [0.4, 0.8], "ref": [[0.1, 50], [0.2, 100]]}
    assert run.ref_ms(slower) == pytest.approx(run.ref_ms(batch))


def test_sampler_takes_its_time_off_the_job():
    class Busy:
        def run(self, job, memo):
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass

        def check(self, job, result, memo):
            return None

    out = worker.run_batch(Busy(), [0])
    (seconds, n), latency = out["ref"][0], out["latencies"][0]
    assert n >= 10
    # the loop ran for 0.3 s of wall time, part of it in the sampler
    assert 0.3 - seconds <= latency < 0.3

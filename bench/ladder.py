"""Reach ladder: the largest surface and label pool on which one product finishes.

    python3 bench/ladder.py

On demand only; the gated benchmark runs do not include it.  Each rung is
one classical `mu` of a random pair on one surface with labels drawn from
one pool, run in its own child process with a wall-time cap of
CAP_SECONDS and an address-space cap (RLIMIT_AS) of CAP_MB, set by the
child on itself.  The surfaces are climbed in order, disk -> annulus ->
torus -> genus two, separately for the pools {V} and {V, adj}; a pool
stops at its first rung that fails or runs out of time or memory.  The result is written to
`.bench_out/ladder.json` and printed as the last line.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"

SURFACES = ("disk", "annulus", "torus", "genus_two")
POOLS = {"V": (1,), "V+adj": (1, 2)}
CAP_SECONDS = 300
CAP_MB = 1536
# seed of every rung's random pair
SEED = 1


def rung(surface, pool):
    """Child side: one product under an address-space cap; prints one JSON line."""
    cap = CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from worker import import_engine

    import_engine()
    from skeinlab import skein_algebra, surface as surfaces
    from skeinlab.ribbon_backend import UNIT, make_backend, simple

    pattern = {
        "disk": surfaces.disk_with_two_points,
        "annulus": surfaces.annulus,
        "torus": surfaces.once_punctured_torus,
        "genus_two": surfaces.genus_two_one_boundary,
    }[surface]()
    # the disk's handle joins its two points, so it needs nonunit arguments
    arg = simple(1) if surface == "disk" else UNIT
    argument = tuple(arg for _ in range(pattern.n_vertices))
    cl = make_backend("classical")
    rng = random.Random(f"ladder/{SEED}/{surface}/{pool}")
    a = skein_algebra.random_element(cl, pattern, rng, label_pool=POOLS[pool], argument=argument)
    b = skein_algebra.random_element(cl, pattern, rng, label_pool=POOLS[pool], argument=argument)
    start = time.perf_counter()
    product = skein_algebra.mu(a, b)
    seconds = time.perf_counter() - start
    ok = True
    if arg == UNIT:
        h = skein_algebra.holonomy_evaluate
        ok = h(product)[0] == h(a)[0] * h(b)[0]
    labels = [[str(lab) for lab in labels] for labels, _ in a.terms + b.terms]
    print(json.dumps({
        "ok": ok,
        "mu_s": seconds,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "labels": labels,
        "product_terms": len(product.terms),
    }))


def climb():
    results = {}
    for pool in POOLS:
        reached = None
        steps = []
        for surface in SURFACES:
            cmd = [sys.executable, __file__, "--rung", surface, "--pool", pool]
            start = time.monotonic()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CAP_SECONDS)
            except subprocess.TimeoutExpired:
                steps.append({"surface": surface, "outcome": f"over {CAP_SECONDS} s"})
                break
            wall = time.monotonic() - start
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                steps.append({"surface": surface, "outcome": f"exit {proc.returncode}: {last[:200]}", "wall_s": wall})
                break
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            record.update(surface=surface, wall_s=wall, outcome="ok" if record["ok"] else "wrong product")
            steps.append(record)
            print(f"{pool:>6} {surface:<10} mu {record['mu_s']:8.2f} s  rss {record['maxrss_mb']:7.1f} MB  {record['outcome']}", flush=True)
            if not record["ok"]:
                break
            reached = surface
        if steps and steps[-1].get("outcome") != "ok":
            print(f"{pool:>6} {steps[-1]['surface']:<10} {steps[-1]['outcome']}", flush=True)
        results[pool] = {"largest_completed": reached, "rungs": steps}
    return results


def main(argv=None):
    # SIGTERM raises SystemExit, which makes subprocess.run kill the running rung
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rung", choices=SURFACES, help=argparse.SUPPRESS)
    parser.add_argument("--pool", choices=tuple(POOLS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung:
        rung(args.rung, args.pool)
        return 0
    results = climb()
    summary = {
        "largest_completed": {pool: r["largest_completed"] for pool, r in results.items()},
        "pools": results,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "ladder.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary["largest_completed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Standing-query scaling benchmark: one shared engine vs N engines.

Feeds one stream to ``N`` standing queries, for ``N`` on a 1 -> 10k
scaling curve, two ways:

* ``shared``   — one :class:`repro.core.multiquery.MultiQueryEngine`
  serves every query (one event store, one partial tree per aggregate,
  due windows popped from a calendar),
* ``unshared`` — ``N`` single-query engines, each fed every batch: the
  bit-identical A/B baseline.

Per-query result fingerprints are asserted identical between the two
(the A/B contract); the recorded speedup is
``unshared / shared`` wall time at each N, and the speedup at
:data:`FLOOR_N` queries must reach :data:`MIN_SPEEDUP`.  The unshared
mode is O(N) appends per batch, so it is measured only up to
:data:`UNSHARED_CAP` queries — the cap is recorded in the payload and
printed, never silent; shared mode runs the full curve.  Results go to
``BENCH_queries.json`` at the repo root so the perf trajectory is
machine-readable.

Run directly (CI runs the reduced mode)::

    PYTHONPATH=src python benchmarks/bench_queries.py
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/bench_queries.py
"""
# This harness *measures host wall-clock* by design — it times the
# engine from outside the simulator.
# decolint: disable-file=DL001

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.multiquery import MultiQueryEngine
from repro.streams.batch import EventBatch

#: The acceptance floor: one shared engine must beat N single-query
#: engines by at least this factor at :data:`FLOOR_N` standing
#: queries.
MIN_SPEEDUP = 5.0

#: Reduced-mode floor: the sharing win is structural (one store and
#: one tree per aggregate vs N of each), so the CI smoke run enforces
#: the same bar.
QUICK_MIN_SPEEDUP = 5.0

#: The query count the floor is gated at.
FLOOR_N = 1000

#: Largest N the O(N)-per-batch N-engine baseline is measured at.
#: Beyond it only shared mode runs; the cap is recorded, not silent.
UNSHARED_CAP = 1000

#: Repeat each (N, mode) feed and keep the best wall-clock — robust
#: to scheduler noise on shared runners.
ROUNDS = 3

STREAM = "local-0"

OUT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_queries.json"


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "").strip() not in \
        ("", "0")


def make_specs(n: int) -> list[str]:
    """``n`` standing-query specs with realistic diversity.

    Cycles aggregates, tumbling/sliding shapes, and 499 distinct
    lengths, so small populations are (almost) all distinct while very
    large ones contain natural duplicates for the registry to dedupe —
    both regimes the shared substrate is built for.
    """
    aggs = ("sum", "avg", "max")
    specs = []
    for i in range(n):
        agg = aggs[i % len(aggs)]
        length = 4096 + 32 * (i % 499)
        if i % 2:
            step = max(256, length // 2 - 16 * (i % 7))
            specs.append(f"{agg}:{length}:{step}")
        else:
            specs.append(f"{agg}:{length}")
    return specs


def make_batches(n_events: int, batch: int, seed: int) -> list[EventBatch]:
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e3, 1e3, n_events)
    ids = np.arange(n_events)
    return [EventBatch(ids[at:at + batch], values[at:at + batch],
                       ids[at:at + batch])
            for at in range(0, n_events, batch)]


def feed(specs: list[str], batches: list[EventBatch],
         *, sharing: bool) -> tuple[float, dict[str, str]]:
    """One lifetime of one shared engine (``sharing``) or of one
    engine per query; returns (wall_s, per-query fingerprints).

    Admission is setup, not steady state, so only the feed is timed.
    """
    if sharing:
        engines = [MultiQueryEngine()]
        for i, spec in enumerate(specs):
            engines[0].admit(STREAM, spec, at=0, qid=f"q{i}")
    else:
        engines = [MultiQueryEngine() for _ in specs]
        for i, (engine, spec) in enumerate(zip(engines, specs,
                                               strict=True)):
            engine.admit(STREAM, spec, at=0, qid=f"q{i}")
    start_s = time.perf_counter()
    for events in batches:
        for engine in engines:
            engine.append(STREAM, events)
    wall = time.perf_counter() - start_s
    fingerprints: dict[str, str] = {}
    for engine in engines:
        fingerprints.update(engine.fingerprints())
    return wall, fingerprints


def main() -> int:
    quick = quick_mode()
    n_events = 1 << 15 if quick else 1 << 16
    # Source-sized batches: IoT feeds arrive in small bursts, and the
    # per-batch append is exactly what sharing collapses from O(N)
    # engines to one event store.
    batch = 256
    ns = [1, 10, 100, 1000] if quick else [1, 10, 100, 1000, 10_000]
    floor = QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP
    batches = make_batches(n_events, batch, seed=11)

    # The A/B contract, asserted on a mid-sized population before any
    # timing: every query's result stream is bit-identical across
    # modes (fingerprints digest each (index, result) pair).
    check_specs = make_specs(100)
    _, shared_fp = feed(check_specs, batches, sharing=True)
    _, unshared_fp = feed(check_specs, batches, sharing=False)
    if shared_fp != unshared_fp:
        print("FAIL: shared per-query fingerprints diverge from "
              "unshared", file=sys.stderr)
        return 1

    curve = []
    floor_speedup = None
    for n in ns:
        specs = make_specs(n)
        best = {}
        for _ in range(ROUNDS):
            wall, _ = feed(specs, batches, sharing=True)
            best["shared"] = min(best.get("shared", float("inf")),
                                 wall)
            if n <= UNSHARED_CAP:
                wall, _ = feed(specs, batches, sharing=False)
                best["unshared"] = min(
                    best.get("unshared", float("inf")), wall)
        point = {
            "queries": n,
            "shared_s": round(best["shared"], 6),
            "shared_eps": round(n_events / best["shared"], 1),
        }
        if "unshared" in best:
            point["unshared_s"] = round(best["unshared"], 6)
            point["speedup"] = round(
                best["unshared"] / best["shared"], 2)
            if n == FLOOR_N:
                floor_speedup = point["speedup"]
        else:
            point["unshared_s"] = None
            point["speedup"] = None
        curve.append(point)
        speedup = (f"{point['speedup']:.1f}x" if point["speedup"]
                   else f"(unshared capped at {UNSHARED_CAP})")
        print(f"N={n:6d}  shared {point['shared_s']:.3f}s "
              f"({point['shared_eps']:,.0f} ev/s)  {speedup}")

    payload = {
        "benchmark": "queries",
        "quick": quick,
        "events": n_events,
        "batch": batch,
        "rounds": ROUNDS,
        "stream": STREAM,
        "bit_identity_checked": True,
        "unshared_cap": UNSHARED_CAP,
        "floor_n": FLOOR_N,
        "min_speedup_required": floor,
        "speedup_at_floor_n": floor_speedup,
        "curve": curve,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    if floor_speedup is None or floor_speedup < floor:
        print(f"FAIL: speedup at {FLOOR_N} queries "
              f"{floor_speedup} < required {floor}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads and the inputs each one runs.

Every workload is a list of :class:`repro.core.runner.RunConfig` runs
(one per scheme) built from a *seed slot*.  ``--seed n`` selects slot
``n % SEED_SLOTS``: the committed reference (``reference.json``) holds
the simulator's outputs for every slot, so any seed the caller passes
maps onto inputs whose correct outputs are known.  The slot drives both
the workload generator's seed and the standing-query mix.

This module imports nothing from ``repro`` at import time, so the
parent process (``run.py``) can read the workload table without paying
for, or depending on, the package import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

#: Number of distinct input sets; ``--seed n`` uses slot ``n % SEED_SLOTS``.
SEED_SLOTS = 16

#: A slot kept out of every tuning run, for confirming a claimed gain
#: on inputs the change was not tuned against.
HOLDOUT_SLOT = 13

#: Length grid of the standing-query mix (events).
QUERY_LENGTHS = (256, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192)
#: Slide divisors of the mix: slide = L, L/2, L/4.
QUERY_SLIDE_DIVISORS = (1, 2, 4)
QUERY_AGGREGATES = ("sum", "avg", "min", "max")

ALL_SCHEMES = ("approx", "central", "deco_async", "deco_mon",
               "deco_monlocal", "deco_sync", "disco", "scotty")


@dataclass(frozen=True)
class Workload:
    """One named workload: which driver, which schemes, which config."""

    name: str
    #: ``"sim"`` (discrete-event simulator) or ``"serve"`` (real
    #: processes over TCP, epoch mode).
    driver: str
    schemes: tuple[str, ...]
    #: ``RunConfig`` keyword arguments (seed excluded).
    config: dict[str, Any]
    #: ``config`` overrides for the self-test's tiny size.
    tiny: dict[str, Any] = field(default_factory=dict)
    #: Standing queries per local stream (0 = none).
    n_queries: int = 0
    tiny_queries: int = 0
    #: Wall of one pass on a 2-vCPU x86 host (seconds).  A run makes
    #: ``round(--seconds / pass_s)`` passes, the same number on every
    #: commit, so an estimator never depends on how many passes fit.
    pass_s: float = 1.0


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sim_schemes", driver="sim", schemes=ALL_SCHEMES,
        config=dict(n_nodes=4, window_size=40_000, n_windows=20,
                    rate_per_node=100_000.0, rate_change=0.01,
                    saturated=True),
        tiny=dict(n_nodes=2, window_size=2_000, n_windows=6),
        pass_s=2.5),
    Workload(
        name="sim_queries", driver="sim", schemes=("deco_async",),
        config=dict(n_nodes=2, window_size=2_000, n_windows=50,
                    rate_per_node=100_000.0, rate_change=0.0,
                    saturated=True),
        tiny=dict(n_nodes=1, window_size=1_000, n_windows=6),
        n_queries=1000, tiny_queries=24, pass_s=1.5),
    Workload(
        name="serve_saturated", driver="serve",
        schemes=("deco_async", "central"),
        config=dict(n_nodes=1, window_size=20_000, n_windows=200,
                    rate_per_node=100_000.0, rate_change=0.01,
                    saturated=True),
        tiny=dict(window_size=1_000, n_windows=6), pass_s=6.5),
)}


def slot_of(seed: int) -> int:
    """The seed slot ``--seed`` selects."""
    return seed % SEED_SLOTS


def query_mix(slot: int, n: int) -> tuple[str, ...]:
    """``n`` standing-query specs (``agg:length[:slide]``) for a slot.

    Every one of the 4 aggregates x 10 lengths x 3 slides = 120
    distinct specs appears ``n // 120`` times, the remainder is drawn
    at random, and the whole mix is shuffled: the slot changes which
    duplicates the registry dedupes and the admission order, not how
    much distinct work there is (for ``n`` >= 120).
    """
    rng = random.Random(f"perfbench-queries-{slot}")
    distinct = [f"{agg}:{length}" if div == 1
                else f"{agg}:{length}:{length // div}"
                for agg in QUERY_AGGREGATES for length in QUERY_LENGTHS
                for div in QUERY_SLIDE_DIVISORS]
    specs = distinct * (n // len(distinct))
    specs += rng.sample(distinct, n - len(specs))
    rng.shuffle(specs)
    return tuple(specs)


def config_kwargs(name: str, slot: int, tiny: bool) -> dict[str, Any]:
    """Plain ``RunConfig`` kwargs (without ``scheme``) for one slot."""
    wl = WORKLOADS[name]
    kwargs = dict(wl.config)
    if tiny:
        kwargs.update(wl.tiny)
    n_queries = wl.tiny_queries if tiny else wl.n_queries
    kwargs["seed"] = slot
    kwargs["queries"] = query_mix(slot, n_queries) if n_queries else ()
    return kwargs


def run_configs(name: str, slot: int, tiny: bool = False) -> list[Any]:
    """One ``RunConfig`` per scheme of the workload."""
    from repro.core.runner import RunConfig
    kwargs = config_kwargs(name, slot, tiny)
    return [RunConfig(scheme=scheme, **kwargs)
            for scheme in WORKLOADS[name].schemes]

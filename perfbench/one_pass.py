"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays
interpreter start, the ``repro`` import and workload generation into an
empty private cache, as a user's first run would.  The pass runs every
scheme of one workload, then prints one JSON record as its last stdout
line: timings, the reference-checked fields of every run, and — for a
traced pass — the per-layer numbers.

Everything up to ``t_done`` is timed; fingerprinting and span output
come after it.
All timestamps share ``time.perf_counter_ns``'s clock, which on Linux is
the system-wide monotonic clock (``time.monotonic``'s too), so the
parent's spawn time, the pass's own stamps and the serve coordinator's
can be subtracted.  With ``--nominal`` the pass samples the host's
speed while it runs and reports every time on the nominal clock
(``calibrate.py``); without it, in wall seconds.
"""
# Host wall-clock is what this benchmark measures.
# decolint: disable-file=DL001

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

from calibrate import NominalClock
from workloads import WORKLOADS, run_configs

now_ns = time.perf_counter_ns


class WallClock:
    """The clock of a pass that does not sample the host: wall time."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def seconds(self, start_ns: int, end_ns: int) -> float:
        return (end_ns - start_ns) / 1e9

    def probe_s(self) -> float:
        return 0.0

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        return 1.0


class StampedOutcomes(list):
    """A run's outcome list that records the wall time of each window
    result as the root appends it."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[int] = []

    def append(self, item: Any) -> None:
        self.stamps.append(now_ns())
        super().append(item)


def usage() -> tuple[float, float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS
    of this process in MB, peak RSS of its largest child in MB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_maxrss / 1024.0, kids.ru_maxrss / 1024.0


def children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def run_sim(configs: list[Any], record: dict[str, Any],
            layer: dict[str, float]) -> list[tuple[Any, Any, Any]]:
    """Every scheme on the simulator; returns (config, result|error,
    workload) per run.  Stamps go to ``record["loops"]`` (run loop
    start and end, ns) and ``record["results"]`` (loop start and each
    window result's stamp, per scheme)."""
    from repro.core.workload import default_cache
    from repro.runtime import driver

    workload = default_cache().get(configs[0].workload_key())
    layer["core.workload.events"] = workload.total_events
    runs: list[tuple[Any, Any, Any]] = []
    for cfg in configs:
        try:
            topo, ctx = driver.build_run(cfg, workload)
            outcomes = StampedOutcomes()
            ctx.result.outcomes = outcomes
            start = now_ns()
            result = driver.run_simulation(
                topo, ctx, cfg.resolved_batch_size(), cfg.saturated,
                cfg.sources_per_node)
            end = now_ns()
        except Exception as exc:  # a failed run, reported by scheme
            runs.append((cfg, exc, workload))
            continue
        record["loops"].append((start, end))
        record["events"] += workload.total_events
        record["results"][cfg.scheme] = (start, outcomes.stamps)
        layer["sim.kernel.events_executed"] += topo.sim.events_executed
        runs.append((cfg, result, workload))
    return runs


def run_serve(configs: list[Any], record: dict[str, Any],
              layer: dict[str, float]) -> list[tuple[Any, Any, Any]]:
    """Every scheme on the serve runtime (epoch mode); stamps as
    :func:`run_sim` records them, plus ``record["setups"]`` (each
    run_scheme_served call and its Coordinator.run, ns)."""
    from repro.serve import harness
    from repro.serve.coordinator import Coordinator

    # Time Coordinator.run (and keep the instance): setup is everything
    # run_scheme_served does outside it.
    runs_seen: list[tuple[Any, int, int]] = []
    original = Coordinator.run

    async def timed_run(self: Coordinator) -> None:
        start = now_ns()
        try:
            await original(self)
        finally:
            runs_seen.append((self, start, now_ns()))

    Coordinator.run = timed_run  # type: ignore[method-assign]
    runs: list[tuple[Any, Any, Any]] = []
    try:
        for cfg in configs:
            cpu0 = children_cpu_s()
            start = now_ns()
            try:
                report = harness.run_scheme_served(cfg, mode="epoch")
            except Exception as exc:  # a failed run, reported by scheme
                runs.append((cfg, exc, None))
                continue
            end = now_ns()
            worker_cpu = children_cpu_s() - cpu0
            coord, run_start, run_end = runs_seen[-1]
            record["setups"].append((start, end, run_start, run_end))
            # The coordinator's loop clock is time.monotonic, the same
            # clock as perf_counter_ns.
            loop_start = round(coord._wall_start * 1e9)
            record["loops"].append(
                (loop_start, loop_start + round(report.wall_seconds * 1e9)))
            record["events"] += report.events_total
            record["results"][cfg.scheme] = (loop_start, [
                loop_start + round(w.wall_offset_s * 1e9)
                for w in report.windows])
            layer["core.workload.events"] = \
                report.workload.total_events
            layer["sim.kernel.events_executed"] += \
                coord.topo.sim.events_executed
            layer["serve.harness.teardown_s"] += (end - run_end) / 1e9
            layer["serve.coordinator.epochs"] += coord._epoch_idx + 1
            layer["serve.coordinator.loop_s"] += report.wall_seconds
            if report.windows:
                layer["serve.coordinator.end_lag_s"] += (
                    report.wall_seconds - report.windows[-1].emit_time)
            layer["serve.worker.cpu_s"] += worker_cpu
            layer["serve.worker.idle_s"] += (
                len(coord.node_names) * report.wall_seconds
                - worker_cpu)
            runs.append((cfg, report, report.workload))
    finally:
        Coordinator.run = original  # type: ignore[method-assign]
    return runs


def check_runs(runs: list[tuple[Any, Any, Any]]) -> list[dict[str, Any]]:
    """Reference-checked fields per run.  The reference of a serve run
    is the simulator run of the same config, so matching it is matching
    the simulator oracle."""
    from check import result_fields

    checked = []
    for cfg, got, workload in runs:
        entry: dict[str, Any] = {"scheme": cfg.scheme, "errors": []}
        checked.append(entry)
        if isinstance(got, Exception):
            entry["errors"].append(
                f"raised {type(got).__name__}: {got}")
            continue
        result = getattr(got, "result", got)
        entry["fields"] = result_fields(result, workload)
    return checked


def query_counts(runs: list[tuple[Any, Any, Any]],
                 layer: dict[str, float]) -> None:
    """Standing-query work, read from each run's RunResult."""
    accounts = 0
    deduped = 0
    for _cfg, got, _wl in runs:
        if isinstance(got, Exception):
            continue
        result = getattr(got, "result", got)
        layer["sim.network.messages"] += result.messages
        layer["sim.network.bytes"] += result.total_bytes
        for acct in result.queries.values():
            accounts += 1
            deduped += acct["deduped_into"] is not None
            layer["core.multiquery.query_windows"] += acct["windows"]
            layer["core.multiquery.combines"] += acct["combines"]
            layer["core.multiquery.edge_events"] += acct["edge_events"]
    layer["core.multiquery.dedup_ratio"] = (
        deduped / accounts if accounts else 0.0)


def traced_layers(tracer: Any, layer: dict[str, float]) -> None:
    """Per-layer times from the span recorder."""
    from tracing import WAIT_LAYERS
    t = tracer
    layer["core.workload.generate_s"] = t.total_s("core.workload.get")
    layer["runtime.driver.build_s"] = t.total_s(
        "runtime.driver.build_run")
    layer["runtime.feeder.source_batches"] = t.counts[
        "runtime.feeder.source_batches"]
    layer["runtime.feeder.feed_s"] = (
        t.self_s("runtime.feeder.feed")
        + t.self_s("runtime.driver.inject_stream"))
    layer["sim.kernel.self_s"] = t.self_s("sim.kernel.run")
    layer["scheme.on_message_calls"] = t.calls("scheme.on_message")
    layer["scheme.on_message_s"] = t.self_s("scheme.on_message")
    layer["core.agg_index.lift_range_calls"] = t.calls(
        "core.agg_index.lift_range")
    layer["core.agg_index.lift_range_s"] = t.self_s(
        "core.agg_index.lift_range")
    layer["core.agg_index.extend_s"] = t.self_s("core.agg_index.extend")
    layer["core.multiquery.append_s"] = t.self_s(
        "core.multiquery.append")
    layer["wire.codec.encode_s"] = t.self_s("wire.codec.encode")
    layer["wire.codec.decode_s"] = t.self_s("wire.codec.decode")
    layer["wire.codec.messages"] = t.counts["wire.codec.messages"]
    layer["wire.codec.bytes"] = t.counts["wire.codec.bytes"]
    layer["serve.harness.handshake_s"] = t.wait_union_s(
        "serve.harness.wait_for_workers")
    for key in ("frames_sent", "frames_recv", "bytes"):
        layer[f"serve.framing.{key}"] = t.counts[f"serve.framing.{key}"]
    layer["serve.framing.send_s"] = t.wait_union_s("serve.framing.send")
    layer["serve.framing.recv_wait_s"] = t.wait_union_s(
        "serve.framing.recv")
    layer["serve.merge.pop_next_s"] = t.self_s("serve.merge.pop_next")
    layer["trace.unattributed_s"] = (
        t.self_s("pass") - t.wait_union_s(*WAIT_LAYERS))
    layer["trace.spans"] = len(t.spans) + t.dropped_spans


def timings(record: dict[str, Any], clock: Any, t_spawn: int,
            t_done: int, cpu_s: float, driver: str) -> None:
    """The pass's times, in seconds of ``clock``, from its stamps."""
    seconds = clock.seconds
    wall_s = seconds(t_spawn, t_done)
    loop_s = sum(seconds(a, b) for a, b in record.pop("loops"))
    setups = record.pop("setups")
    if driver == "sim":
        # Everything that is not the run loop: interpreter start,
        # import, workload generation, build_run.
        setup_s = wall_s - loop_s
    else:
        setup_s = sum(seconds(a, b) - seconds(run_a, run_b)
                      for a, b, run_a, run_b in setups)
    # Saturated: all input is there when the loop starts, so each
    # result's latency is its time since then.
    record["latencies_s"] = {
        scheme: [seconds(start, stamp) for stamp in stamps]
        for scheme, (start, stamps) in record.pop("results").items()}
    slowdown = clock.slowdown(t_spawn, t_done)
    record.update(
        wall_s=wall_s, loop_s=loop_s, setup_s=setup_s,
        # The probes' CPU is their wall: they run on the pass's thread.
        cpu_s=(cpu_s - clock.probe_s()) / slowdown,
        host_slowdown=slowdown,
        raw_wall_s=(t_done - t_spawn) / 1e9 - clock.probe_s())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--t-spawn", type=int, required=True,
                        help="parent's perf_counter_ns at spawn")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--nominal", action="store_true",
                        help="report times on the nominal clock")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    clock = NominalClock() if args.nominal else WallClock()
    clock.start()

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()
        tracer.run_id = args.run_id
        root = tracer.enter()
        root[1] = args.t_spawn
    import repro.baselines  # noqa: F401 -- registers the baselines
    import repro.core  # noqa: F401 -- registers the Deco schemes
    if tracer is not None:
        install(tracer, list(wl.schemes))
        tracer.add_span("startup", args.t_spawn, now_ns())
    configs = run_configs(args.workload, args.slot, args.tiny)
    record: dict[str, Any] = {"events": 0, "loops": [], "results": {},
                              "setups": []}
    layer: dict[str, float] = dict.fromkeys(
        ("sim.kernel.events_executed", "serve.harness.teardown_s",
         "serve.coordinator.epochs", "serve.coordinator.loop_s",
         "serve.coordinator.end_lag_s", "serve.worker.cpu_s",
         "serve.worker.idle_s", "sim.network.messages",
         "sim.network.bytes", "core.multiquery.query_windows",
         "core.multiquery.combines", "core.multiquery.edge_events"),
        0)
    if wl.driver == "sim":
        runs = run_sim(configs, record, layer)
    else:
        runs = run_serve(configs, record, layer)
    t_done = now_ns()
    cpu_s, rss_self_mb, rss_kids_mb = usage()
    clock.stop()
    if tracer is not None:
        tracer.leave("pass", root)
        tracer.restore()
    timings(record, clock, args.t_spawn, t_done, cpu_s, wl.driver)
    record.update(peak_rss_mb=max(rss_self_mb, rss_kids_mb),
                  runs=check_runs(runs))
    query_counts(runs, layer)
    layer["serve.worker.peak_rss_mb"] = rss_kids_mb
    epochs = layer["serve.coordinator.epochs"]
    layer["serve.coordinator.events_per_epoch"] = (
        layer["sim.kernel.events_executed"] / epochs if epochs else 0.0)
    if tracer is not None:
        traced_layers(tracer, layer)
        if args.spans is not None:
            tracer.write(args.spans)
        record["layers"] = layer
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host wall-clock benchmark of the simulator and the serve runtime.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_schemes --seed 0 \
        --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in fresh-interpreter passes
(``one_pass.py``), as many as ``--seconds`` holds at the workload's
nominal pass time, checks every run's outputs against the committed
reference (``reference.json``), and prints one JSON object as its last
stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count scheme runs; a run fails when it raises,
stalls, or differs from the reference in any checked field, and each
failure is printed naming the workload, scheme and field.  The
reference of a serve run is the simulator run of the same config.

``--trace 0`` reports the end-to-end metrics, each the median over
passes, with every time read from the nominal clock (``calibrate.py``):
the pass samples the host's speed while it runs and reports its times
at a fixed nominal speed, so the host's drift between and within runs
does not show.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones in
wall seconds, the tracing overhead, and a fresh-interpreter import
probe; its spans go to ``.perfbench-out/``, as does every pass's
timing record (``passes-*.jsonl``).

Metric names, units and directions live in ``BENCHMARK.json``; this
script prints exactly those for the selected mode.
"""
# Host wall-clock is what this benchmark measures.
# decolint: disable-file=DL001

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from check import REFERENCE_PATH, config_digest, mismatches
from workloads import (HOLDOUT_SLOT, SEED_SLOTS, WORKLOADS,
                       config_kwargs, slot_of)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: A pass still running after this long is a stall: killed, and every
#: run in it counts as failed.
PASS_TIMEOUT_S = 45.0

#: On a host so slow that the passes overrun ``--seconds`` by this
#: factor, no further pass starts, so a run still ends in time.
OVERRUN_FACTOR = 1.25


def percentile(samples: list[float], q: float) -> float:
    """Linearly interpolated percentile, as ``numpy.percentile`` and
    the serve harness compute it (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def compile_sources() -> None:
    """Byte-compile the program and the benchmark next to their sources
    before the first pass, so that every pass imports from bytecode, as
    a user's second run does, whether or not the environment lets the
    passes write bytecode themselves (``PYTHONDONTWRITEBYTECODE``)."""
    import compileall
    sys.pycache_prefix = None
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)


def child_env(cache: Path) -> dict[str, str]:
    """The pass environment: no inherited ``REPRO_*`` switches (the
    benchmark measures the defaults) or bytecode location, the
    checkout's sources, and a private, empty workload cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_WORKLOAD_CACHE"] = str(cache)
    return env


def run_child(argv: list[str], env: dict[str, str]
              ) -> tuple[int | None, str, str]:
    """Run one child in its own process group; a stall kills the whole
    group (serve workers included)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


class Bench:
    """One invocation: runs passes and gathers their records."""

    def __init__(self, args: argparse.Namespace,
                 expected: dict[str, Any]) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.slot = slot_of(args.seed)
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.log = OUT / f"passes-{args.workload}-s{args.seed}.jsonl"
        self.log.unlink(missing_ok=True)

    def one_pass(self, traced: bool) -> dict[str, Any] | None:
        """Run one pass; returns its record, or None if it died."""
        args = self.args
        cache = OUT / f"cache-{os.getpid()}-{self.passes}"
        run_id = f"{args.workload}-s{args.seed}-p{self.passes}"
        self.passes += 1
        argv = [sys.executable, str(HERE / "one_pass.py"),
                "--workload", args.workload, "--slot", str(self.slot),
                "--trace", str(int(traced)), "--run-id", run_id]
        if args.tiny:
            argv.append("--tiny")
        if not args.trace:
            argv.append("--nominal")
        if traced:
            argv += ["--spans", str(
                OUT / f"spans-{args.workload}-s{args.seed}.jsonl")]
        cache.mkdir(parents=True, exist_ok=True)
        try:
            argv += ["--t-spawn", str(time.perf_counter_ns())]
            code, out, err = run_child(argv, child_env(cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        schemes = self.workload.schemes
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            reason = ("stalled (killed after "
                      f"{PASS_TIMEOUT_S:.0f} s)" if code is None
                      else f"exited {code}")
            self.attempted += len(schemes)
            self.failed += len(schemes)
            print(f"FAIL workload={args.workload} scheme=* "
                  f"pass {reason}: {err.strip()[-2000:]}")
            return None
        record: dict[str, Any] = json.loads(lines[-1])
        with open(self.log, "a") as log:
            log.write(json.dumps({k: v for k, v in record.items()
                                  if k not in ("runs", "latencies_s",
                                               "layers")}) + "\n")
        for run in record["runs"]:
            self.attempted += 1
            problems = list(run["errors"])
            if "fields" in run:
                problems += mismatches(
                    self.expected.get(run["scheme"], {}), run["fields"])
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAIL workload={args.workload} "
                          f"scheme={run['scheme']} seed={args.seed}: "
                          f"{problem}")
        return record

    def measure(self) -> dict[str, float]:
        """A fixed number of passes; returns the metrics.

        A traced run alternates untraced and traced passes (and an
        import probe), so it makes half as many rounds.
        """
        traced = bool(self.args.trace)
        rounds = max(1, round(self.args.seconds / self.workload.pass_s
                              / (2 if traced else 1)))
        cutoff = time.monotonic() + OVERRUN_FACTOR * self.args.seconds
        plain: list[dict[str, Any]] = []
        with_trace: list[dict[str, Any]] = []
        imports: list[float] = []
        for done in range(rounds):
            if done and time.monotonic() > cutoff:
                print(f"host too slow: stopped after {done} of "
                      f"{rounds} rounds")
                break
            record = self.one_pass(traced=False)
            if record is not None:
                plain.append(record)
            if traced:
                record = self.one_pass(traced=True)
                if record is not None:
                    with_trace.append(record)
                imports.append(import_probe())
        if traced:
            return layer_metrics(plain, with_trace, imports)
        return end_to_end_metrics(plain)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the worker module."""
    code = ("import time; t = time.perf_counter(); "
            "import repro.serve.worker; "
            "print(time.perf_counter() - t)")
    env = child_env(OUT / "import-probe")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=PASS_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def median_of(records: list[dict[str, Any]], key: str) -> float:
    values = [r[key] for r in records]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(records: list[dict[str, Any]]
                       ) -> dict[str, float]:
    """The end-to-end metrics: each one's median over the run's passes.

    The passes report their times on the nominal clock
    (``calibrate.py``).  Every workload is saturated, so a window's
    latency is its result's time since the run loop started.  A pass's
    latency percentile is the mean over the workload's schemes (which
    differ too much to pool) of each scheme's percentile over its
    windows.
    """
    for r in records:
        r["events_per_s"] = r["events"] / r["loop_s"] if r["loop_s"] else 0.0
        for name, q in (("latency_p50_ms", 0.50), ("latency_p95_ms", 0.95)):
            per_scheme = [percentile(samples, q) * 1e3
                          for samples in r["latencies_s"].values()]
            r[name] = statistics.fmean(per_scheme) if per_scheme else 0.0
    samples = {scheme: len(s) for scheme, s in
               (records[0]["latencies_s"] if records else {}).items()}
    print(f"passes={len(records)} latency_samples_per_pass={samples} "
          f"host_slowdown={median_of(records, 'host_slowdown'):.3f} "
          f"raw_wall_s={median_of(records, 'raw_wall_s'):.4f}")
    return {name: median_of(records, name)
            for name in ("setup_s", "wall_s", "events_per_s",
                         "latency_p50_ms", "latency_p95_ms", "cpu_s",
                         "peak_rss_mb")}


def layer_metrics(plain: list[dict[str, Any]],
                  traced: list[dict[str, Any]],
                  imports: list[float]) -> dict[str, float]:
    layers = [r["layers"] for r in traced]
    names = sorted({name for lay in layers for name in lay})
    out = {name: statistics.median(lay[name] for lay in layers)
           for name in names}
    untraced_wall = median_of(plain, "wall_s")
    out["trace.overhead_ratio"] = (
        median_of(traced, "wall_s") / untraced_wall
        if untraced_wall > 0 else 0.0)
    out["startup.import_s"] = statistics.median(imports) \
        if imports else 0.0
    out["bench.latency_samples"] = statistics.median(
        sum(map(len, r["latencies_s"].values())) for r in plain) \
        if plain else 0
    return out


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def expected_fields(args: argparse.Namespace, reference_path: Path
                    ) -> dict[str, Any]:
    """The reference entry for this workload and seed slot."""
    slot = slot_of(args.seed)
    entry = json.loads(reference_path.read_text())["workloads"][
        args.workload][str(slot)]
    digest = config_digest(config_kwargs(args.workload, slot, args.tiny))
    if entry["config"] != digest:
        raise SystemExit(
            f"reference {reference_path} was built for other inputs of "
            f"{args.workload} (slot {slot}); rebuild it with "
            f"perfbench/make_reference.py")
    return entry["schemes"]


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    """Host and input facts, printed before the result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            rev = (ref_path.read_text().strip() if ref_path.is_file()
                   else ref)
        else:
            rev = ref
    return {"workload": args.workload, "seed": args.seed,
            "seed_slot": slot_of(args.seed), "seed_slots": SEED_SLOTS,
            "holdout_slot": HOLDOUT_SLOT, "tiny": args.tiny,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_rev": rev}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (needs a tiny reference)")
    parser.add_argument("--reference", type=Path, default=REFERENCE_PATH)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    expected = expected_fields(args, args.reference)
    declared = declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    print(json.dumps({"provenance": provenance(args)}))
    compile_sources()
    bench = Bench(args, expected)
    values = bench.measure()
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs once per mode against a tiny reference built here,
and must print every metric ``BENCHMARK.json`` declares, with its unit.
Canaries perturb the reference and require the run to be counted as
failed, naming the workload, scheme and field: the gate must bite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from calibrate import NOMINAL_PROBE_NS, NominalClock  # noqa: E402


def run_bench(workload: str, trace: int, reference: Path,
              cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--reference", str(reference)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess[str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory: pytest.TempPathFactory) -> Path:
    out = tmp_path_factory.mktemp("ref") / "reference.json"
    subprocess.run(
        [sys.executable, str(BENCH / "make_reference.py"), "--tiny",
         "--slots", "0", "--out", str(out)],
        cwd=ROOT, check=True, capture_output=True, timeout=170)
    return out


def perturbed(reference: Path, tmp_path: Path, workload: str,
              scheme: str, field: str) -> Path:
    data = json.loads(reference.read_text())
    fields = data["workloads"][workload]["0"]["schemes"][scheme]
    value = fields[field]
    fields[field] = value + 1 if isinstance(value, int) else "0" + value
    out = tmp_path / "perturbed.json"
    out.write_text(json.dumps(data))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload: str, trace: int,
                                        reference: Path) -> None:
    result = result_of(run_bench(workload, trace, reference))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    if not trace:
        for name in ("setup_s", "wall_s", "events_per_s",
                     "latency_p50_ms", "cpu_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload,scheme,field", [
    ("sim_schemes", "deco_async", "windows"),
    ("sim_queries", "deco_async", "queries"),
    ("serve_saturated", "central", "bytes_up"),
])
def test_wrong_reference_counts_as_failed_run(
        workload: str, scheme: str, field: str, reference: Path,
        tmp_path: Path) -> None:
    bad = perturbed(reference, tmp_path, workload, scheme, field)
    proc = run_bench(workload, 0, bad)
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert (f"FAIL workload={workload} scheme={scheme}" in proc.stdout)
    assert f"{field}: expected" in proc.stdout


def test_fails_without_the_program(tmp_path: Path,
                                   reference: Path) -> None:
    """Next to only BENCHMARK.json and the benchmark's own files, the
    benchmark must exit non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sim_schemes", 0, reference, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_nominal_clock_divides_by_the_probes_slowdown() -> None:
    """Probes that take twice their nominal time halve the clock's
    rate; the clock stands still while a probe runs."""
    clock = NominalClock()
    probe = 2 * NOMINAL_PROBE_NS
    clock.probes = [(t, t + probe) for t in (0, 10**7, 2 * 10**7)]
    clock.build()
    gap = 10**7 - probe
    assert clock.seconds(probe, 10**7) == pytest.approx(gap / 2 / 1e9)
    assert clock.seconds(0, probe) == pytest.approx(0.0)
    # Before the first and after the last probe: their rates.
    assert clock.seconds(-10**6, 0) == pytest.approx(0.5e-3)
    end = 2 * 10**7 + probe
    assert clock.seconds(end, end + 10**6) == pytest.approx(0.5e-3)
    assert clock.slowdown(-10**6, end + 10**6) == pytest.approx(2.0)
    assert clock.probe_s() == pytest.approx(3 * probe / 1e9)

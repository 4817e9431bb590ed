"""The correctness gate: what a run must reproduce, and the comparison.

:func:`result_fields` reduces one :class:`~repro.core.records.RunResult`
to the quantities the reference pins: every determinism
:class:`~repro.analysis.determinism.Fingerprint` field (window results
and standing-query fingerprints as digests), the modelled sustainable
throughput, and paper correctness.  Floats are stored as ``float.hex``
so the gate is bit-exact, like the fingerprint contract itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Integer fingerprint fields compared as-is.
COUNT_FIELDS = ("bytes_up", "bytes_down", "bytes_peer", "messages",
                "retransmissions", "correction_steps",
                "prediction_errors", "recomputed_events")


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:24]


def result_fields(result: Any, workload: Any) -> dict[str, Any]:
    """The reference-checked fields of one run's result."""
    from repro.analysis.determinism import Fingerprint
    from repro.errors import ConfigurationError
    from repro.metrics.correctness import correctness
    from repro.metrics.throughput import sustainable_throughput

    fp = Fingerprint.of(result)
    fields: dict[str, Any] = {"n_windows": result.n_windows,
                              "windows": _digest(fp.windows),
                              "queries": _digest(fp.queries)}
    for name in COUNT_FIELDS:
        fields[name] = getattr(fp, name)
    try:
        fields["sustainable_eps"] = sustainable_throughput(result).hex()
    except ConfigurationError as exc:
        fields["sustainable_eps"] = f"error: {exc}"
    fields["correctness"] = correctness(result, workload).hex()
    return fields


def mismatches(expected: dict[str, Any],
               got: dict[str, Any]) -> list[str]:
    """Field-level differences, each naming the field."""
    return [f"{name}: expected {expected.get(name)!r}, "
            f"got {got.get(name)!r}"
            for name in sorted(set(expected) | set(got))
            if expected.get(name) != got.get(name)]


def config_digest(kwargs: dict[str, Any]) -> str:
    """Digest of a workload's config, so a reference built for other
    inputs is refused instead of failing every run."""
    return _digest(json.dumps(kwargs, sort_keys=True, default=list))

"""Build the benchmark's committed reference (``reference.json``).

For every workload and seed slot this runs each scheme on the
simulator — the oracle — and records the fields ``check.py`` compares:
the determinism fingerprint (window results and standing-query
fingerprints as digests, byte/message/correction counts), the modelled
sustainable throughput and paper correctness.  Serve workloads are
referenced by the simulator run of the same config.

Rebuild only when the program's outputs are meant to change::

    python3 perfbench/make_reference.py            # all slots
    python3 perfbench/make_reference.py --tiny --slots 0 --out ref.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(slots: list[int], tiny: bool) -> dict:
    from check import config_digest, result_fields
    from repro.core.runner import run_scheme
    from workloads import WORKLOADS, config_kwargs, run_configs

    workloads: dict = {}
    for name in WORKLOADS:
        per_slot = workloads.setdefault(name, {})
        for slot in slots:
            schemes = {}
            for cfg in run_configs(name, slot, tiny):
                result, workload = run_scheme(cfg)
                schemes[cfg.scheme] = result_fields(result, workload)
            per_slot[str(slot)] = {
                "config": config_digest(config_kwargs(name, slot, tiny)),
                "schemes": schemes}
            print(f"{name} slot {slot}: {sorted(schemes)}",
                  file=sys.stderr)
    return {"tiny": tiny, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    from workloads import SEED_SLOTS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--slots", type=int, nargs="*",
                        default=list(range(SEED_SLOTS)))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path,
                        default=HERE / "reference.json")
    args = parser.parse_args(argv)
    # Reference outputs are the defaults' outputs: drop every REPRO_*
    # switch, and keep the workload cache inside the checkout.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_WORKLOAD_CACHE"] = str(
        ROOT / ".perfbench-out" / "reference-cache")
    sys.path.insert(0, str(ROOT / "src"))
    reference = build(args.slots, args.tiny)
    args.out.write_text(json.dumps(reference, indent=1, sort_keys=True)
                        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

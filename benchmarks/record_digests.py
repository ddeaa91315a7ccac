"""Record the output digests that ``run.py`` checks each unit against.

    python3 benchmarks/record_digests.py

Run from the root of a checkout whose outputs are known to be right. For
every workload and every seed below ``run.RECORDED_SEEDS`` it goes through
``run.Run`` as a benchmark run does (inputs, set-up, units
``0..RECORDED_UNITS-1``) and stores each unit's digest in
``benchmarks/digests.json``, or null for a unit that raised (a run then
counts that unit as failed only if it raises again). Outputs are
byte-identical only on the same numpy, BLAS and CPU, so the digests are
filed under that platform; entries for other platforms are kept.
"""

from __future__ import annotations

import json
import sys

import run


def record(np, wl, workload: str, seed: int) -> list[str]:
    r = run.Run(np, wl, workload, seed)
    r.recorded = None  # record, do not compare
    try:
        r.prepare()
        r.setup()
        for index in range(run.RECORDED_UNITS):
            r.unit(index)
    finally:
        r.cleanup()
    return [r.digests.get(index) for index in range(run.RECORDED_UNITS)]


def main() -> int:
    np, wl = run.import_program()
    table = run.read_digest_table()
    recorded = table.setdefault(run.platform_key(np), {})
    for workload in wl.WORKLOADS:
        recorded[workload] = {
            str(seed): record(np, wl, workload, seed) for seed in range(run.RECORDED_SEEDS)
        }
        print(f"recorded {run.RECORDED_SEEDS} seeds of {workload}", flush=True)
    run.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

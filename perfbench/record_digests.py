"""Re-record ``digests.json``: each point's summary digest at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Runs one pass of every workload at its full shape and seed
``workloads.DEFAULT_SEED`` and writes the ``label -> digest`` table that
``run.py`` holds every later run at that seed to.  Re-record only when a
change to the package is meant to change results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.import_package()
    from harness import Bench
    from workloads import DEFAULT_SEED, WORKLOAD_NAMES, build

    table = {}
    os.makedirs(run.RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=run.RUNS)
    try:
        for name in WORKLOAD_NAMES:
            bench = Bench(build(name), DEFAULT_SEED, work)
            if bench.workload.prefill:
                bench.prefill()
            else:
                bench.run_pass()
            if bench.failed:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            table[name] = dict(sorted(bench.reference.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as sink:
        json.dump(table, sink, indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the per-operation report digests that ``run.py`` checks against.

    python3 perfbench/record_digests.py

Run from the repository root.  For every workload and every recorded seed
(the default seed, the held-out seed and seeds 0..31) it runs one untraced
pass into an emptied output directory and writes
``perfbench/digests.json``.  The digests pin the lab's
output bit for bit, so re-record them only with a change that is meant to
alter what the lab prints, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    out_dir = tempfile.mkdtemp(prefix=".emit-", dir=BENCH)
    try:
        for workload in workloads.WORKLOADS.values():
            for seed in workloads.RECORDED_SEEDS:
                digests = {}
                for op in workload.ops:
                    out = os.path.join(out_dir, op.name)
                    shutil.rmtree(out, ignore_errors=True)
                    reports, files = op.run(seed, out)
                    problem = workloads.check_structure(op, reports, files, seed)
                    if problem:
                        print(f"{workload.name} seed {seed} {op.name}: {problem}",
                              file=sys.stderr)
                        return 1
                    digests[op.name] = workloads.digest(reports, files)
                recorded.setdefault(workload.name, {})[str(seed)] = digests
                print(f"{workload.name} seed {seed} recorded", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(BENCH, "digests.json"), "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the Table 1 and sweep digests ``goldens.json`` checks against.

Run at a commit whose numbers are known good (every result is meant to
stay bit-identical across commits); it takes about a minute per pattern
seed::

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import inputs
from batch import GOLDENS, sweep_rows, table1_rows
from common import ROOT, digest, git_sha, run_child


def main() -> int:
    work = ROOT / ".perfbench-work" / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    goldens = {"recorded_at": git_sha(), "table1": {}, "sweep": {},
               "table1_structure": {}}
    # Workload seeds 0..7 pick each recorded pattern seed once.
    for index in range(len(inputs.PATTERN_SEEDS)):
        for mode, args, rows in (
                ("table1", inputs.table1_inputs(index), table1_rows),
                ("sweep", inputs.sweep_inputs(index), sweep_rows)):
            seed = args["pattern_seed"]
            cache = work / f"{mode}-{seed}"
            cache.mkdir(parents=True)
            out = run_child(mode, dict(args, cache_dir=str(cache)), work,
                            time.perf_counter() + 600)
            goldens[mode][str(seed)] = digest(rows(out))
            if mode == "table1":
                structure = {f"{row[0]}/{row[1]}": [row[2], row[3]]
                             for row in rows(out)}
                if goldens["table1_structure"] not in ({}, structure):
                    raise SystemExit(f"gate counts or delays moved with "
                                     f"the pattern seed at {seed}")
                goldens["table1_structure"] = structure
            print(f"{mode} seed {seed}: {goldens[mode][str(seed)][:16]} "
                  f"({out['wall_s']:.1f} s)", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

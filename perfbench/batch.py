"""``table1-cold`` and ``sweep-640k``: whole passes, each in a fresh
process with an empty cache directory.

A run measures set-up three times (a fresh interpreter importing the
program and building the session), then whole passes: at least one,
and another only while it is expected to end within ``--seconds``.
Every pass is checked against the digest recorded in ``goldens.json``
for its pattern seed.  The traced run adds one traced pass, which must
give the same cells or records as the untraced ones.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List

import inputs
from common import (
    BENCH_DIR,
    canonical_flow,
    digest,
    median,
    run_child,
)

SETUP_REPEATS = 3
GOLDENS = BENCH_DIR / "goldens.json"


def table1_rows(out: Dict[str, Any]) -> List[List[Any]]:
    """A pass's cells in table order, exactly comparable."""
    return [canonical_flow(cell) for cell in out["cells"]]


def sweep_rows(out: Dict[str, Any]) -> List[List[Any]]:
    """A pass's records by (circuit, library, vdd, frequency), exactly
    comparable."""
    rows = [canonical_flow(record["result"])
            + [float(record["vdd"]).hex(), float(record["frequency"]).hex()]
            for record in out["records"]]
    return sorted(rows, key=lambda row: (row[0], row[1],
                                         float.fromhex(row[-2]),
                                         float.fromhex(row[-1])))


ROWS = {"table1": table1_rows, "sweep": sweep_rows}


def golden_problems(mode: str, pattern_seed: int,
                    rows: List[List[Any]]) -> List[str]:
    """Differences between a pass and the answers recorded at the parent
    commit (empty when they agree)."""
    goldens = json.loads(GOLDENS.read_text())
    expected = goldens[mode].get(str(pattern_seed))
    if expected is None:
        return [f"no {mode} digest recorded for pattern seed {pattern_seed}"]
    if digest(rows) == expected:
        return []
    problems = [f"{mode} digest at pattern seed {pattern_seed} differs "
                f"from the one recorded at {goldens['recorded_at']}"]
    if mode == "table1":
        # Gate counts and delays do not depend on the pattern seed;
        # name the first cells whose structure moved.
        for row in rows:
            cell = f"{row[0]}/{row[1]}"
            if goldens["table1_structure"].get(cell) != [row[2], row[3]]:
                problems.append(f"{cell}: gates/delay {row[2]}/{row[3]} "
                                f"recorded {goldens['table1_structure'].get(cell)}")
    return problems[:8]


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path, deadline: float) -> Dict[str, Any]:
    mode = "table1" if workload == "table1-cold" else "sweep"
    args = (inputs.table1_inputs(seed) if mode == "table1"
            else inputs.sweep_inputs(seed))
    caches = iter(range(1_000))

    def fresh_cache() -> str:
        path = work / f"cache-{next(caches)}"
        path.mkdir(parents=True)
        return str(path)

    def child(child_mode: str, **extra) -> Dict[str, Any]:
        return run_child(child_mode,
                         dict(args, cache_dir=fresh_cache(), **extra),
                         work, deadline)

    setups = [child(f"setup-{mode}")["process_s"]
              for _ in range(SETUP_REPEATS)]
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(child(mode))
        elapsed = time.perf_counter() - started
        if elapsed + median(p["process_s"] for p in passes) > seconds:
            break

    rows = ROWS[mode]
    problems = golden_problems(mode, args["pattern_seed"], rows(passes[0]))
    problems += [f"pass {index} differs from pass 0"
                 for index, out in enumerate(passes[1:], 1)
                 if rows(out) != rows(passes[0])]
    attempted = failed = 0
    for out in passes:
        attempted += out.get("attempted", len(rows(out)))
        failed += out.get("quarantined", 0)
    wall = median(out["wall_s"] for out in passes)
    detail: Dict[str, Any] = {
        "pattern_seed": args["pattern_seed"],
        "passes": len(passes),
        "wall_s_each": [out["wall_s"] for out in passes],
        "setup_s_each": setups,
    }
    if mode == "sweep":
        detail.update(groups=passes[0]["groups"],
                      simulations=passes[0]["simulations"])
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "cpu_s": median(out["cpu_s"] for out in passes),
        "peak_rss_mb": max(out["peak_rss_mb"] for out in passes),
    }
    if trace:
        traced = child(mode, trace=True)
        attempted += traced.get("attempted", len(rows(traced)))
        failed += traced.get("quarantined", 0)
        if rows(traced) != rows(passes[0]):
            problems.append("the traced replay differs from the "
                            "untraced pass")
        metrics = dict(traced["layers"])
        metrics.update({"http.overhead_ms_p50": 0.0, "http.rejected": 0,
                        "http.errors": 0,
                        "trace.overhead_s": traced["wall_s"] - wall})
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "detail": detail}

"""The fresh process each measured pass runs in.

``python3 perfbench/child.py <mode> <args.json> <out.json>`` with
``PYTHONPATH`` at the checkout's ``src`` and ``REPRO_CACHE_DIR`` at the
pass's own cache directory (both set by the parent).  Modes:

* ``setup-table1`` / ``setup-sweep`` — import the program and build
  the session, nothing else (the set-up a fresh user process pays);
* ``table1`` — ``Session(jobs=1).table1()`` at the given pattern seed;
* ``sweep`` — ``Session(jobs=1).sweep`` over the given grid with an
  in-memory store;
* ``replay`` — the serve-restart warm set and schedule replayed in
  order through an in-process ``Engine`` with the HTTP handler's
  schema calls, no pacing.

With ``"trace": true`` in the arguments every layer call records a
span (:mod:`tracing`) and the output carries the layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Dict, List

from common import self_peak_rss_mb
from inputs import query_id
from tracing import LAYERS, Tracer, instrument_layers


def cache_footprint(root: Path) -> Dict[str, int]:
    """Entries and bytes in a cache directory (lock files excluded)."""
    entries = size = 0
    for path in root.rglob("*"):
        if path.is_file() and "_locks" not in path.parts:
            entries += 1
            size += path.stat().st_size
    return {"entries": entries, "bytes": size}


def program_counters() -> Dict[str, float]:
    """The program's own process-wide meters (absolute: each pass runs
    in a fresh process)."""
    from repro import cache, foundry, timing
    from repro.power.pattern_sim import spice_solve_count
    from repro.sim import activity, kernels

    stats = activity.cache_info()
    meters = kernels.kernel_counters().values()
    disk = cache.cache_stats()
    return {
        "sim.simulations": stats["simulations"],
        "sim.disk_hits": stats["disk_hits"],
        "sim.gate_evals": sum(meter["gate_evals"] for meter in meters),
        "sim.kernel_s": sum(meter["elapsed_s"] for meter in meters),
        "timing.mem_hits": timing.cache_info()["hits"],
        "foundry.spice_solves": spice_solve_count(),
        "foundry.artifact_hits":
            foundry.foundry_counters()["artifact.hits"],
        "cache.verified_reads": disk["verified"],
        "cache.quarantined": disk["quarantined"],
    }


def _ratio(cache: Dict[str, int]) -> float:
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, total_s: float, cache_dir: Path,
                  footprint_before: Dict[str, int],
                  engine: Any = None) -> Dict[str, float]:
    """Every per-layer metric a child can see (``http.*`` and the
    tracing overhead are the parent's)."""
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    counts = tracer.counts
    counters = program_counters()
    footprint = cache_footprint(cache_dir)
    self_s["schema"] = (self_s.get("schema.encode", 0.0)
                        + self_s.get("schema.decode", 0.0))
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0)
               for layer in LAYERS if layer != "schema"}
    metrics.update({
        "synth.calls": calls.get("synth", 0),
        "synth.and_nodes": counts["synth.and_nodes"],
        "mapper.calls": calls.get("mapper", 0),
        "mapper.gates": counts["mapper.gates"],
        "foundry.calls": calls.get("foundry", 0),
        "foundry.spice_solves": counters["foundry.spice_solves"],
        "foundry.artifact_hits": counters["foundry.artifact_hits"],
        "timing.calls": calls.get("timing", 0),
        "timing.mem_hits": counters["timing.mem_hits"],
        "sim.calls": calls.get("sim", 0),
        "sim.simulations": counters["sim.simulations"],
        "sim.disk_hits": counters["sim.disk_hits"],
        "sim.gate_evals": counters["sim.gate_evals"],
        "sim.gate_evals_per_s": (counters["sim.gate_evals"]
                                 / counters["sim.kernel_s"]
                                 if counters["sim.kernel_s"] else 0.0),
        "pricing.points": counts["pricing.points"],
        "cache.entries_written": (footprint["entries"]
                                  - footprint_before["entries"]),
        "cache.bytes_written": footprint["bytes"] - footprint_before["bytes"],
        "cache.verified_reads": counters["cache.verified_reads"],
        "cache.quarantined": counters["cache.quarantined"],
        "sweep.groups": counts["sweep.groups"],
        "sweep.simulations": counts["sweep.simulations"],
        "schema.encode_us": _mean_us(self_s.get("schema.encode", 0.0),
                                     calls.get("schema.encode", 0)),
        "schema.decode_us": _mean_us(self_s.get("schema.decode", 0.0),
                                     calls.get("schema.decode", 0)),
        "unattributed_s": total_s - sum(self_s[layer] for layer in LAYERS
                                        if layer in self_s),
        "trace.total_s": total_s,
    })
    stats = engine.stats() if engine is not None else None
    metrics.update({
        "engine.results_hot":
            stats["counters"].get("results.hot", 0) if stats else 0,
        "engine.results_cold":
            stats["counters"].get("results.cold", 0) if stats else 0,
        "engine.netlist_hit_ratio":
            _ratio(stats["caches"]["netlists"]) if stats else 0.0,
        "engine.library_hit_ratio":
            _ratio(stats["caches"]["libraries"]) if stats else 0.0,
    })
    return metrics


def _mean_us(total_s: float, calls: int) -> float:
    return total_s / calls * 1e6 if calls else 0.0


# -- modes -------------------------------------------------------------------

def table1_config(args: Dict[str, Any]):
    from repro.experiments.config import FAST_CONFIG
    return replace(FAST_CONFIG, seed=args["pattern_seed"],
                   n_patterns=args["n_patterns"],
                   state_patterns=args["state_patterns"])


def sweep_spec(args: Dict[str, Any]):
    from repro.sweep.spec import SweepSpec
    return SweepSpec(circuits=tuple(args["circuits"]),
                     libraries=tuple(args["libraries"]),
                     vdd=tuple(args["vdd"]),
                     frequency=tuple(args["frequency"]),
                     n_patterns=(args["n_patterns"],),
                     seed=args["pattern_seed"])


def setup(workload: str, args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import Session
    if workload == "table1":
        Session(table1_config(args), jobs=1)
    else:
        sweep_spec(args)
        Session(jobs=1)
    return {}


def run_table1(args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import Session

    session = Session(table1_config(args), jobs=1)
    start = time.perf_counter()
    cpu = time.process_time()
    table = session.table1()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    cells = [asdict(table.results[name][library])
             for name in table.benchmark_order
             for library in table.library_order]
    return {"wall_s": wall, "cpu_s": cpu, "cells": cells}


def run_sweep(args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import Session

    spec = sweep_spec(args)
    session = Session(jobs=1)
    start = time.perf_counter()
    cpu = time.process_time()
    report = session.sweep(spec)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    records = [{"vdd": record["config"]["vdd"],
                "frequency": record["config"]["frequency"],
                "result": record["result"]}
               for record in report.store.records()]
    return {"wall_s": wall, "cpu_s": cpu, "records": records,
            "attempted": report.total, "quarantined": report.quarantined,
            "groups": report.groups, "simulations": report.simulations}


def run_replay(args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.api import Session
    from repro.experiments.config import FAST_CONFIG
    from repro.schema import (
        PowerQuery,
        batch_response_payload,
        queries_from_batch,
    )
    from repro.serve.engine import Engine
    from repro.sim import activity

    engine = Engine(Session(FAST_CONFIG))
    default = engine.session.config
    answers: Dict[str, Dict[str, Any]] = {}
    failed = 0

    def handle(path: str, body: Dict[str, Any]) -> None:
        # The calls the HTTP handler makes, minus the socket.
        if path == "/v1/estimate":
            query = PowerQuery.from_dict(body, default_config=default)
            reports = [engine.estimate(query).to_dict()]
            bodies = [body]
        else:
            queries = queries_from_batch(body, default_config=default)
            reports = batch_response_payload(
                engine.estimate_batch(queries))["reports"]
            bodies = body["queries"]
        for single, report in zip(bodies, reports):
            answers[query_id(single)] = report["result"]

    requests = ([{"path": "/v1/estimate", "body": body}
                 for body in args["warm"]] + args["schedule"])
    start = time.perf_counter()
    for index, request in enumerate(requests):
        try:
            handle(request["path"], request["body"])
        except Exception as exc:  # counted, reported, and the run fails
            failed += 1
            print(f"replay request {index} failed: {exc!r}",
                  file=sys.stderr)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "answers": answers, "attempted": len(requests),
            "failed": failed, "engine": engine,
            "simulations": activity.cache_info()["simulations"]}


def main(argv: List[str]) -> int:
    mode, args_path, out_path = argv
    args = json.loads(Path(args_path).read_text())
    cache_dir = Path(args["cache_dir"])
    tracer = None
    if args.get("trace"):
        tracer = Tracer()
        instrument_layers(tracer)
    before = cache_footprint(cache_dir)
    if mode.startswith("setup-"):
        out = setup(mode[len("setup-"):], args)
    elif mode == "table1":
        out = run_table1(args)
    elif mode == "sweep":
        out = run_sweep(args)
    elif mode == "replay":
        out = run_replay(args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    engine = out.pop("engine", None)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out["wall_s"], cache_dir,
                                      before, engine)
    out["peak_rss_mb"] = self_peak_rss_mb()
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

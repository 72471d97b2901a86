"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run's detail (fingerprint, per-kind counts, problems).  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.  The exit
code is 0 only when every output check passed; a serve-restart run
whose load generator fell behind is reported invalid (exit 3).

Workloads, and why each was chosen
----------------------------------

``table1-cold`` — ``Session(jobs=1).table1()``: the 12 paper circuits
x 3 paper libraries at 16K patterns, in a fresh process with an empty
cache directory; the seed picks the pattern RNG seed.  The paper's
experiment run the way a new user runs it.  Synthesis and mapping do
most of the work here.  Simulation uses the small-pattern working set,
and the disk cache only takes *writes*.

``serve-restart`` — an open loop at a fixed rate against one
``repro serve --fast`` process, started on a fresh copy of a cache
directory left behind by an earlier lifetime that answered the same
cold keys.  The seed draws the Poisson arrivals and the mix: ``hot``
(the large majority; a repeat of an answered query), ``reprice`` (a
warmed cell at a new frequency and fanout), ``batch``
(``/v1/estimate_batch`` over a fresh 20-frequency grid of a warmed
cell) and a few ``cold`` (a not-yet-asked paper circuit on any of the
5 libraries at vdd 0.8, 0.9 or 1.0).  Warming the hot set counts
toward ``setup_s``.  The HTTP, schema and engine caches carry the hot
path.  The disk cache only takes *reads*, and simulation should do no
work.  Cold queries still re-synthesize and re-map, because those
stages are not persisted.  Hot requests share one interpreter with
cold computes.  The rate (100 requests/s plus one cold request per
5 s) and the 90/7/3 hot/reprice/batch shares are assumptions, reasoned
in ``inputs.py``.  Measured at 98c1cf6 over ten runs on a shared 2-vCPU
virtual machine, the server's CPU time over the whole mix was 30-36% of
the open loop (``server_cpu_frac`` in the detail line), so cold work
keeps the server busy well under half the run.  The cold answers' own
engine time summed to 17-43% of it (median 28%; ``cold_busy_frac``),
an overestimate that includes waits for the interpreter behind hot
requests: the top figure came in a slow phase of the host, with the hot
p50 at 200 ms.

``sweep-640k`` — ``Session(jobs=1).sweep`` at the paper's 640K patterns
with an empty cache directory and an in-memory store: C7552, C6288 x 3
paper libraries x vdd {0.8, 0.9, 1.0} x 20 frequencies, 360 points in
6 groups.  Simulation is about half the wall time here, with the
large-pattern working set.  It also exercises remapping per vdd,
``estimate_many`` repricing, timing and sweep grouping.

Left out on purpose: ``family(...)`` traffic (one request that hits the
known mapper hang wedges the server for the rest of the run), the
multi-worker fleet and ``jobs > 1`` (on 2 cores those numbers would
measure the scheduler).

End-to-end metrics (``--trace 0``), every workload
--------------------------------------------------

``setup_s``      median of 3 set-ups: a fresh interpreter importing the
                 program and building the session (batch workloads); a
                 restarted server ready with its hot set warmed
                 (serve-restart).
``wall_s``       the pass (batch, median over passes); on serve-restart,
                 the median of 5 in-process ``Engine`` replays of the
                 warm set and schedule, unpaced, each on a fresh copy
                 of the restart cache (the open loop's own span is
                 fixed by its schedule).
``cpu_s``        CPU seconds of the program process over the pass; on
                 serve-restart, the server's cost of the open-loop mix.
``peak_rss_mb``  peak RSS of the program process.

Latencies are in the detail line, each as a median and the highest of
p99.9/p99/p90/p50 with at least 10 samples beyond it, with its sample
count: per request kind of the open loop (hot/reprice/batch/cold,
timed from the due time) with attempted/OK/failed counts, the SLO
share (non-cold requests answered OK within ``serving.SLO_MS``) and
the generator lateness.  They are not
gated: on a shared 2-vCPU virtual machine the hot p50 and p99 moved by
17-52% (quartile spread over 5 runs), more than the largest bound
allowed (25%).

Per-layer metrics (``--trace 1``), and what each should move
------------------------------------------------------------

Spans are recorded from this directory's ``tracing.py`` around each
layer's public call; the program's own counters are read in the same
process.  ``self_s`` is span time minus the time of nested layer spans.

=============  ================================  ============================
layer          call timed                        should move
=============  ================================  ============================
circuits       ``registry.build_circuit``        wall_s, table1-cold (<1%)
synth          ``flow.synthesize_subject``       wall_s table1-cold and
                                                 sweep-640k; serve cold
mapper         ``flow.map_subject``              the same three
foundry        ``registry.cached_library``       setup_s; serve cold (new
                                                 vdd keys)
timing         ``timing.timing_report``          wall_s sweep-640k
sim            ``activity.simulation_stats``     wall_s sweep-640k (~1/2),
                                                 table1-cold (~1/4); none on
                                                 serve-restart, where
                                                 sim.simulations reads 0
pricing        ``PricingModel`` for_netlist,     serve reprice and batch;
               bind, ``report``;                 wall_s sweep-640k
               ``estimate_many``
cache          cache directory + cache_stats     writes cost wall_s on
                                                 table1-cold; reads serve
                                                 cold queries
sweep          ``Session.sweep``                 wall_s sweep-640k
engine         ``Engine.estimate`` /             serve cold and hot
               ``estimate_batch`` (replay)       latency, cpu_s
schema         ``PowerQuery.from_dict`` /        serve hot latency, cpu_s
               ``PowerQuoteReport.to_dict``
http           client round trip minus the       serve hot p50 and p99,
               engine time of the same request   SLO share
=============  ================================  ============================

``unattributed_s`` is the traced total minus every layer's self time
(glue), and ``trace.overhead_s`` is the traced total minus the
untraced time of the same work.  With no contention a faster layer
saves at most its self-time share; on serve-restart a shorter cold
path should also lower the hot p99, because hot requests wait for the
interpreter behind cold computes; persisting synthesis or mapping
should cut serve cold latency without raising table1-cold ``wall_s``
through the extra writes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from typing import Any, Dict

from common import ROOT, SRC, emit, fingerprint

WORKLOADS = ("table1-cold", "serve-restart", "sweep-640k")
#: Every run ends (or is killed) within this many seconds.
RUN_BUDGET_S = 170.0


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its server and children (``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    units = declared_metrics(bool(args.trace))
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    detail: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "fingerprint": fingerprint()}
    try:
        if args.workload == "serve-restart":
            import serving
            try:
                result = serving.run(args.seed, args.seconds,
                                     bool(args.trace), work, deadline)
            except serving.InvalidRun as exc:
                print(f"invalid run: {exc}", file=sys.stderr)
                return 3
        else:
            import batch
            result = batch.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    detail.update(result["detail"], problems=result["problems"])
    detail["fingerprint"]["loadavg_after"] = list(os.getloadavg())
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with BENCHMARK.json")
    print(json.dumps({"detail": detail}))
    emit({"correct": result["correct"], "attempted": result["attempted"],
          "failed": result["failed"],
          "metrics": {name: {"value": metrics[name], "unit": units[name]}
                      for name in units}})
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

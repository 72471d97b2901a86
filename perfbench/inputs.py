"""Seeded input generation for the three workloads.

Every function here is a pure function of the workload seed (and, for
traffic, the run length): the same seed gives the same inputs, and the
program under test receives only what these functions return.  Nothing
here imports :mod:`repro`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: Pattern RNG seeds with a Table 1 / sweep digest recorded in
#: ``goldens.json`` at the parent commit.  The workload seed picks one,
#: so every run checks every cell against a recorded answer; 2010 is
#: the paper's own seed.
PATTERN_SEEDS = tuple(range(2010, 2018))

PAPER_LIBRARIES = ("cntfet-generalized", "cntfet-conventional", "cmos")
ALL_LIBRARIES = PAPER_LIBRARIES + ("cntfet-hybrid-pass",
                                   "cntfet-np-dynamic")

#: The 16K-pattern budget of ``repro serve --fast`` / ``FAST_CONFIG``.
FAST_PATTERNS = 16_384

# -- sweep-640k --------------------------------------------------------------

SWEEP_CIRCUITS = ("C7552", "C6288")
SWEEP_VDDS = (0.8, 0.9, 1.0)
#: 0.1 .. 2.0 GHz in 0.1 GHz steps.
SWEEP_FREQUENCIES = tuple(step * 1e8 for step in range(1, 21))
PAPER_PATTERNS = 640_000

# -- serve-restart -----------------------------------------------------------

#: Circuits of the warmed (hot) set.  Cold keys use other circuits,
#: so every cold query synthesizes a circuit the restarted server has
#: not built yet.
WARM_CIRCUITS = ("C1355", "t481")
#: The slowest cold key, always asked: the ROADMAP's reference cold
#: query.  Hot requests stalled behind it set the hot tail, so the tail
#: does not depend on the seed.
REFERENCE_COLD = ("C7552", "cmos")
#: The other cold circuits, of similar cost; the seed gives each a
#: library (any of the 5) and a supply.
COLD_CIRCUITS = ("C1908", "C2670", "dalu")
COLD_VDDS = (0.8, 0.9, 1.0)

# The traffic shape is an assumption: the repository has no record of
# real traffic.  ``benchmarks/bench_load.py`` replays a 3:1:1
# warm/batch/cold stress profile; here cold requests are "a few", so
# its shares are not reused.  Each number below is chosen for what it
# lets the run measure, and a run reports the load it made
# (``cold_busy_frac``, ``server_cpu_frac`` in the detail line).

#: Open-loop arrival rate of hot/reprice/batch requests, per second.
#: At 20 s it gives 1 800 hot requests, enough for a hot p99 with 18
#: samples beyond it; the hot path costs about 1.5 ms a request, so
#: hot traffic alone keeps the server busy about a sixth of the run.
RATE_PER_S = 100.0
#: Shares of that stream (cold requests are placed separately): hot is
#: the large majority; reprice and batch get enough requests for a
#: median each (140 and 60 at 20 s) without batch grids (20 prices
#: each) outweighing the hot work.
MIX = (("hot", 0.90), ("reprice", 0.07), ("batch", 0.03))
#: One cold request per this many seconds of run: 4 in 20 s, the
#: reference key and the three others.  Cold answers take about
#: 0.6-1.2 s each (median cold latency), so cold work keeps the server
#: busy well under half the run (``cold_busy_frac``), and hot requests
#: stalled behind a cold compute still set the hot p99.
COLD_EVERY_S = 5.0
BATCH_POINTS = 20


def pattern_seed(seed: int) -> int:
    return PATTERN_SEEDS[seed % len(PATTERN_SEEDS)]


def table1_inputs(seed: int) -> Dict[str, Any]:
    """``Session(jobs=1).table1()`` at 16K patterns: the seed picks the
    pattern RNG seed."""
    return {"pattern_seed": pattern_seed(seed),
            "n_patterns": FAST_PATTERNS, "state_patterns": FAST_PATTERNS}


def sweep_inputs(seed: int) -> Dict[str, Any]:
    """The paper-budget sweep grid: 2 circuits x 3 paper libraries x 3
    supplies x 20 frequencies; the seed picks the pattern RNG seed."""
    return {"pattern_seed": pattern_seed(seed),
            "circuits": list(SWEEP_CIRCUITS),
            "libraries": list(PAPER_LIBRARIES),
            "vdd": list(SWEEP_VDDS),
            "frequency": list(SWEEP_FREQUENCIES),
            "n_patterns": PAPER_PATTERNS}


def fast_config(vdd: float = 0.9, frequency: float = 1e9,
                fanout: int = 3) -> Dict[str, Any]:
    """A wire-format config: the fast budget at one operating point."""
    return {"vdd": vdd, "frequency": frequency, "fanout": fanout,
            "n_patterns": FAST_PATTERNS, "state_patterns": FAST_PATTERNS}


def _query(circuit: str, library: str, config: Dict[str, Any]
           ) -> Dict[str, Any]:
    return {"circuit": circuit, "library": library, "config": config}


def serve_inputs(seed: int, seconds: float) -> Dict[str, Any]:
    """Warm set, cold keys and the open-loop schedule of one run.

    Arrivals are a Poisson process conditioned on its count: the count
    of each kind is fixed by the run length, the times are sorted
    uniform draws.  Returns ``{"warm": [query...], "schedule":
    [request...]}``; a request is ``{"t": due offset s, "kind", "path",
    "body"}``.
    """
    rng = random.Random(f"serve-restart/{seed}")
    warm = [_query(circuit, library, fast_config())
            for circuit in WARM_CIRCUITS
            for library in rng.sample(PAPER_LIBRARIES, 2)]

    n_cold = max(1, round(seconds / COLD_EVERY_S))
    others = list(zip(COLD_CIRCUITS,
                      rng.sample(ALL_LIBRARIES, len(COLD_CIRCUITS))))
    rng.shuffle(others)
    cold_keys = [REFERENCE_COLD] + others[:max(0, n_cold - 1)]
    rng.shuffle(cold_keys)
    vdds = [COLD_VDDS[index % len(COLD_VDDS)] for index in range(n_cold)]
    rng.shuffle(vdds)
    slot = seconds / n_cold
    schedule: List[Dict[str, Any]] = []
    for index in range(n_cold):
        circuit, library = cold_keys[index % len(cold_keys)]
        # One cold request per equal slot of the run, jittered, so cold
        # computes do not pile onto each other.
        schedule.append({
            "t": (index + rng.uniform(0.1, 0.6)) * slot, "kind": "cold",
            "path": "/v1/estimate",
            "body": _query(circuit, library, fast_config(vdd=vdds[index]))})

    total = round(RATE_PER_S * seconds)
    kinds = [name for name, share in MIX[1:]
             for _ in range(round(share * total))]
    kinds += ["hot"] * (total - len(kinds))
    rng.shuffle(kinds)
    for kind, t in zip(kinds, sorted(rng.uniform(0, seconds)
                                     for _ in range(total))):
        cell = rng.choice(warm)
        if kind == "hot":
            request = {"path": "/v1/estimate", "body": cell}
        elif kind == "reprice":
            config = fast_config(frequency=rng.uniform(2e8, 3e9),
                                 fanout=rng.randint(1, 6))
            request = {"path": "/v1/estimate",
                       "body": _query(cell["circuit"], cell["library"],
                                      config)}
        else:
            queries = [_query(cell["circuit"], cell["library"],
                              fast_config(frequency=rng.uniform(2e8, 3e9)))
                       for _ in range(BATCH_POINTS)]
            request = {"path": "/v1/estimate_batch",
                       "body": {"schema_version": 1, "queries": queries}}
        schedule.append(dict(t=t, kind=kind, **request))
    schedule.sort(key=lambda request: request["t"])
    return {"warm": warm, "schedule": schedule}


def distinct_queries(inputs: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every distinct single query a serve-restart run asks, warm set
    first, in first-asked order."""
    seen = {}
    bodies = list(inputs["warm"])
    for request in inputs["schedule"]:
        body = request["body"]
        bodies.extend(body["queries"] if "queries" in body else [body])
    for body in bodies:
        seen.setdefault(query_id(body), body)
    return list(seen.values())


def query_id(body: Dict[str, Any]) -> str:
    """A hashable identity of a wire-format query."""
    config = body["config"]
    return "|".join([body["circuit"], body["library"]]
                    + [f"{key}={config[key]!r}" for key in sorted(config)])

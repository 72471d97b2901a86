"""``serve-restart``: open-loop traffic against a restarted
``repro serve --fast``.

1. *Earlier lifetime.*  In-process ``Session.run`` answers the warm
   set and the cold keys with ``REPRO_CACHE_DIR`` at a base directory.
   ``Engine._compute`` runs the same stages, so the base holds what an
   earlier server answering those keys leaves on disk, and the answers
   are the references every served answer must equal bit for bit.
2. *Set-up, three times.*  Copy the base, start ``repro serve --fast``
   on the copy, wait until ready and warm the hot set over HTTP.  The
   first two servers are stopped; the third takes the traffic.
3. *Traffic.*  One dispatcher thread releases each request at its due
   time to two client connections (one process, at most two
   connections).  Latency counts from the due time; how late the
   dispatcher itself ran is the generator lateness, and a run whose
   p99 lateness exceeds :data:`LATENESS_BOUND_MS` is invalid.
4. *Replays.*  The same warm set and schedule are replayed in order,
   without pacing, through an in-process ``Engine`` on fresh copies of
   the base, :data:`REPLAYS` times; the median replay is ``wall_s``.
   The traced run adds one traced replay.

The open loop's length is fixed by its schedule, so its span cannot
show a slower program; the replays can.  They leave out the socket
round trip: over HTTP, the same passes varied by 30% (quartile spread
over 10 runs) on a shared 2-vCPU virtual machine, against 10% for the
median of four in-process replays.  No server and no replay may
simulate: the base cache holds every simulation.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import inputs
from common import (
    ROOT,
    SRC,
    median,
    percentile,
    process_cpu_s,
    process_peak_rss_mb,
    run_child,
    tail,
)

SETUP_REPEATS = 3
REPLAYS = 4
CONNECTIONS = 2
#: Every request gives up after this long (and counts as failed).
CLIENT_TIMEOUT_S = 10.0
#: Latency limit of the SLO share: non-cold requests answered OK within
#: it, from their due time.
SLO_MS = 50.0
#: A run whose dispatcher ran later than this at p99 is invalid: its
#: lateness alone would spend half the SLO latency limit.  Valid runs
#: on a shared 2-vCPU virtual machine read 1-17 ms.
LATENESS_BOUND_MS = SLO_MS / 2
READY_TIMEOUT_S = 30.0
#: Requests still queued this long after the schedule's last due time
#: are not sent and count as failed, so a stuck server cannot stretch
#: the run past its time limit.
OVERTIME_S = 30.0
HEADERS = {"Content-Type": "application/json", "Connection": "close"}


class InvalidRun(Exception):
    """The load generator could not keep its schedule."""


# -- the earlier lifetime and the references ---------------------------------

def earlier_lifetime(queries: List[Dict[str, Any]], warm: List[Dict[str, Any]],
                     cold: List[Dict[str, Any]], base: Path
                     ) -> Dict[str, Dict[str, Any]]:
    """Answer every distinct query in process; write the base cache.

    The warm set and the cold keys go through ``Session.run``; repricings
    of a warm cell (new frequency, fanout) reuse that cell's mapping
    through ``run_circuit_flow(..., netlist=...)``, which
    ``run_circuit_flow`` documents as bit-identical to remapping.
    """
    from dataclasses import asdict, replace

    from repro import registry
    from repro.api import Session
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.flow import (
        map_subject,
        run_circuit_flow,
        synthesized_benchmark,
    )
    from repro.schema import PowerQuery

    Session(FAST_CONFIG, cache_dir=base, cache_enabled=True)
    references: Dict[str, Dict[str, Any]] = {}
    netlists: Dict[Tuple[str, str, float], Any] = {}
    for body in warm + cold:
        query = PowerQuery.from_dict(body, default_config=FAST_CONFIG)
        flow = Session(query.config).run(query.circuit, query.library)
        references[inputs.query_id(body)] = asdict(flow)
    for body in queries:
        key = inputs.query_id(body)
        if key in references:
            continue
        query = PowerQuery.from_dict(body, default_config=FAST_CONFIG)
        config = query.config
        circuit = registry.canonical_circuit(query.circuit)
        library = registry.cached_library(query.library, config.vdd)
        subject = synthesized_benchmark(circuit, config.synthesize)
        mapping = (circuit, query.library, config.vdd)
        if mapping not in netlists:
            netlists[mapping] = map_subject(subject, library, config)
        flow = run_circuit_flow(subject, library, config,
                                presynthesized=True,
                                netlist=netlists[mapping])
        references[key] = asdict(replace(flow, circuit=circuit))
    return references


# -- the server ----------------------------------------------------------------

class Server:
    """One ``repro serve --fast`` process on its own cache directory."""

    def __init__(self, cache_dir: Path, log: Path):
        self.log = log
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_CACHE_DIR=str(cache_dir), REPRO_CACHE_DISABLE="0")
        with open(log, "wb") as sink:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--fast",
                 "--host", "127.0.0.1", "--port", "0"],
                cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._wait_listening()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _wait_listening(self) -> Tuple[str, int]:
        limit = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < limit:
            for line in self.log.read_text(errors="replace").splitlines():
                if " listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start: {self.log.read_text()}")

    def _wait_ready(self) -> None:
        limit = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < limit:
            try:
                status, _ = self.request("GET", "/v1/healthz/ready")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=CLIENT_TIMEOUT_S)
        try:
            connection.request(method, path, body=body, headers=HEADERS)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def healthz(self) -> Dict[str, Any]:
        status, data = self.request("GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"/v1/healthz answered {status}")
        return json.loads(data)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers; waits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def start_warm_server(base: Path, work: Path, index: int,
                      warm: List[Dict[str, Any]]) -> Tuple[Server, float]:
    """Restart on a fresh copy of the base and warm the hot set; the
    server and the set-up time."""
    start = time.perf_counter()
    cache = work / f"serve-cache-{index}"
    shutil.copytree(base, cache)
    server = Server(cache, work / f"server-{index}.log")
    try:
        for body in warm:
            status, data = server.request("POST", "/v1/estimate",
                                          json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"warming answered {status}: {data!r}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


# -- the load generator ----------------------------------------------------------

def drive(server: Server, schedule: List[Dict[str, Any]]
          ) -> List[Dict[str, Any]]:
    """Send the schedule open-loop; one record per request."""
    bodies = [json.dumps(request["body"]).encode() for request in schedule]
    records: List[Dict[str, Any]] = [{} for _ in schedule]
    ready: "queue.Queue[Optional[int]]" = queue.Queue()
    start = time.perf_counter() + 0.05
    length = schedule[-1]["t"] if schedule else 0.0
    give_up_at = start + length + OVERTIME_S

    def dispatcher() -> None:
        for index, request in enumerate(schedule):
            due = start + request["t"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            records[index]["due"] = due
            records[index]["late"] = time.perf_counter() - due
            ready.put(index)
        for _ in range(CONNECTIONS):
            ready.put(None)

    def client() -> None:
        # A connection per request, as repro.serve.client does (urllib
        # closes after each reply); two clients, so at most two open.
        while True:
            index = ready.get()
            if index is None:
                break
            record = records[index]
            record["sent"] = time.perf_counter()
            if record["sent"] > give_up_at:
                record.update(status=None, done=record["sent"],
                              error="not sent: the run is over time")
                continue
            try:
                record["status"], record["body"] = server.request(
                    "POST", schedule[index]["path"], bodies[index])
            except (OSError, http.client.HTTPException) as exc:
                record["status"] = None
                record["error"] = repr(exc)
            record["done"] = time.perf_counter()

    threads = [threading.Thread(target=dispatcher, name="dispatcher",
                                daemon=True)]
    threads += [threading.Thread(target=client, name=f"client-{n}",
                                 daemon=True)
                for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, give_up_at + CLIENT_TIMEOUT_S + 5
                                - time.perf_counter()))
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    return records


def healthz_delta(before: Dict[str, Any], after: Dict[str, Any],
                  prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of two ``/v1/healthz`` payloads, after - before,
    flattened to dotted keys.  A counter absent before counts from 0;
    booleans and strings are skipped."""
    out: Dict[str, float] = {}
    for key, value in after.items():
        name = f"{prefix}{key}"
        earlier = before.get(key) if isinstance(before, dict) else None
        if isinstance(value, dict):
            out.update(healthz_delta(earlier if isinstance(earlier, dict)
                                     else {}, value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            base = (earlier if isinstance(earlier, (int, float))
                    and not isinstance(earlier, bool) else 0)
            out[name] = value - base
    return out


# -- checking and summarizing ----------------------------------------------------

def answers_of(request: Dict[str, Any], record: Dict[str, Any]
               ) -> List[Tuple[Dict[str, Any], Dict[str, Any], float]]:
    """(query, served result, engine seconds) per query of a 200 reply."""
    payload = json.loads(record["body"])
    body = request["body"]
    if "queries" in body:
        return [(query, report["result"], report["elapsed_s"])
                for query, report in zip(body["queries"],
                                         payload["reports"])]
    return [(body, payload["result"], payload["elapsed_s"])]


def summarize(schedule: List[Dict[str, Any]], records: List[Dict[str, Any]],
              references: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    kinds: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    failures: List[str] = []
    overhead_ms: List[float] = []
    cold_engine_s = 0.0
    within_slo = non_cold = 0
    for request, record in zip(schedule, records):
        kind = kinds.setdefault(request["kind"], {
            "attempted": 0, "ok": 0, "failed": 0, "latency_ms": []})
        kind["attempted"] += 1
        latency_ms = (record["done"] - record["due"]) * 1e3
        ok = record["status"] == 200
        if ok:
            try:
                answers = answers_of(request, record)
            except (ValueError, KeyError) as exc:
                problems.append(f"unreadable answer: {exc!r}")
                answers = []
            for query, result, _ in answers:
                if result != references[inputs.query_id(query)]:
                    problems.append(
                        f"{request['kind']} answer for {query['circuit']}/"
                        f"{query['library']} differs from Session.run")
            engine_s = sum(elapsed for _, _, elapsed in answers)
            if request["kind"] == "cold":
                cold_engine_s += engine_s
            overhead_ms.append((record["done"] - record["sent"] - engine_s)
                               * 1e3)
            kind["ok"] += 1
            kind["latency_ms"].append(latency_ms)
        else:
            kind["failed"] += 1
            failures.append(f"{request['kind']} request failed: "
                            f"{record.get('status')} {record.get('error', '')}")
        if request["kind"] != "cold":
            non_cold += 1
            within_slo += ok and latency_ms <= SLO_MS
    lateness_ms = [record["late"] * 1e3 for record in records]
    detail = {
        name: {"attempted": kind["attempted"], "ok": kind["ok"],
               "failed": kind["failed"],
               "p50_ms": (median(kind["latency_ms"])
                          if kind["latency_ms"] else None),
               "tail_ms": tail(kind["latency_ms"])}
        for name, kind in sorted(kinds.items())}
    return {
        "kinds": detail,
        "slo_frac": within_slo / non_cold if non_cold else None,
        "slo_ms": SLO_MS,
        "generator_late_p99_ms": percentile(lateness_ms, 99),
        "cold_engine_s": cold_engine_s,
        "http_overhead_ms_p50": median(overhead_ms) if overhead_ms else 0.0,
        "problems": problems[:8],
        "failures": failures[:8],
        "attempted": len(records),
        "failed": sum(kind["failed"] for kind in kinds.values()),
    }


# -- the workload ------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, work: Path,
        deadline: float) -> Dict[str, Any]:
    generated = inputs.serve_inputs(seed, seconds)
    warm, schedule = generated["warm"], generated["schedule"]
    cold = [request["body"] for request in schedule
            if request["kind"] == "cold"]
    base = work / "base-cache"
    base.mkdir(parents=True)
    references = earlier_lifetime(inputs.distinct_queries(generated), warm,
                                  cold, base)

    setups = []
    server = None
    sims: List[int] = []
    try:
        for index in range(SETUP_REPEATS):
            if server is not None:
                sims.append(server.healthz()["counters"]["stats.cold"])
                server.stop()
            server, elapsed = start_warm_server(base, work, index, warm)
            setups.append(elapsed)
        before = server.healthz()
        cpu_before = process_cpu_s(server.pid)
        records = drive(server, schedule)
        cpu_s = process_cpu_s(server.pid) - cpu_before
        after = server.healthz()
        peak_rss = process_peak_rss_mb(server.pid)
        sims.append(after["counters"]["stats.cold"])
    finally:
        if server is not None:
            server.stop()

    summary = summarize(schedule, records, references)
    delta = healthz_delta(before, after)
    if summary["generator_late_p99_ms"] > LATENESS_BOUND_MS:
        raise InvalidRun(
            f"the load generator ran {summary['generator_late_p99_ms']:.1f}"
            f" ms late at p99 (bound {LATENESS_BOUND_MS} ms)")
    problems = list(summary["problems"])
    replays = []
    for index in range(REPLAYS + trace):
        cache = work / f"replay-cache-{index}"
        shutil.copytree(base, cache)
        replays.append(run_child(
            "replay", {"cache_dir": str(cache), "warm": warm,
                       "schedule": schedule, "trace": index == REPLAYS},
            work, deadline))
    for out in replays:
        problems += [f"replay answer for {key} differs from Session.run"
                     for key, answer in out["answers"].items()
                     if answer != references[key]][:4]
    sims += [out["simulations"] for out in replays]
    if any(sims):
        problems.append(f"the servers and replays simulated {sims} times; "
                        f"the base cache should have answered every "
                        f"simulation")
    wall = median(out["wall_s"] for out in replays[:REPLAYS])
    detail = {
        "setup_s_each": setups,
        "replay_wall_s_each": [out["wall_s"] for out in replays],
        "failures": summary["failures"],
        "kinds": summary["kinds"],
        "slo_frac": summary["slo_frac"],
        "slo_ms": SLO_MS,
        "generator_late_p99_ms": summary["generator_late_p99_ms"],
        # Shares of the open loop's length: engine time of the cold
        # answers, and server CPU over the whole mix.
        "cold_busy_frac": summary["cold_engine_s"] / seconds,
        "server_cpu_frac": cpu_s / seconds,
        "simulations": sims,
        "server_window": {key: delta.get(key, 0) for key in (
            "counters.results.hot", "counters.results.cold",
            "counters.http.shed", "caches.disk.verified",
            "caches.disk.quarantined", "foundry.spice_solves")},
    }
    result = {
        "attempted": (summary["attempted"] + len(warm) * SETUP_REPEATS
                      + sum(out["attempted"] for out in replays)),
        "failed": summary["failed"] + sum(out["failed"] for out in replays),
        "detail": detail,
        "metrics": {
            "setup_s": median(setups),
            "wall_s": wall,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss,
        },
    }
    if trace:
        metrics = dict(replays[-1]["layers"])
        metrics.update({
            "http.overhead_ms_p50": summary["http_overhead_ms_p50"],
            "http.rejected": (delta.get("counters.http.shed", 0)
                              + delta.get("counters.http.rejected_draining",
                                          0)),
            "http.errors": summary["failed"],
            "trace.overhead_s": replays[-1]["wall_s"] - wall,
        })
        result["metrics"] = metrics
    result["problems"] = problems
    result["correct"] = not problems
    return result

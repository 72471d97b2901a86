"""Helpers shared by the benchmark's workloads: percentiles, process
meters, the run fingerprint and canonical digests of program outputs.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Percentiles a tail may be reported at, in tenths of a percent,
#: highest first.  Integers keep the "samples beyond" test exact.
_TAIL_TENTHS = (999, 990, 900, 500)

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(samples: Sequence[float]) -> Dict[str, Any]:
    """The highest of p99.9/p99/p90/p50 with >= 10 samples beyond it.

    Returns ``{"percentile", "value", "n"}``; ``percentile`` and
    ``value`` are ``None`` when even the median has fewer than ten
    samples beyond it (fewer than 20 samples).
    """
    n = len(samples)
    for tenths in _TAIL_TENTHS:
        # n * (1 - q) >= MIN_BEYOND, in integer arithmetic.
        if n * (1000 - tenths) >= MIN_BEYOND * 1000:
            q = tenths / 10.0
            return {"percentile": q, "value": percentile(samples, q),
                    "n": n}
    return {"percentile": None, "value": None, "n": n}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- process meters ----------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of proc(5)); utime/stime are 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    """Peak RSS of the calling process, MB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- fingerprint ---------------------------------------------------------------

def src_digest(src: Path = SRC) -> str:
    """sha256 over every file under ``src`` (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path = ROOT) -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint() -> Dict[str, Any]:
    """What the numbers of one run depend on besides the code."""
    import numpy
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


# -- canonical outputs ---------------------------------------------------------

#: Float fields of a ``CircuitFlowResult``, in declaration order.
FLOW_FLOATS = ("delay_s", "pd_w", "ps_w", "pg_w", "pt_w", "edp_js")


def canonical_flow(flow: Dict[str, Any]) -> List[Any]:
    """A flow-result dict as an exactly comparable list (floats in hex)."""
    return ([flow["circuit"], flow["library"], flow["gate_count"]]
            + [float(flow[name]).hex() for name in FLOW_FLOATS])


def digest(rows: Any) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


def run_child(mode: str, args: Dict[str, Any], work: Path,
              deadline: float) -> Dict[str, Any]:
    """Run one ``child.py`` pass in a fresh interpreter; its output.

    ``args["cache_dir"]`` becomes the child's ``REPRO_CACHE_DIR``; the
    child is killed at ``deadline`` (a ``time.perf_counter`` value).
    The wall time from spawn to exit is returned as ``process_s``.
    """
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{mode}-{len(list(work.glob('*.args.json')))}"
    args_path = work / f"{tag}.args.json"
    out_path = work / f"{tag}.out.json"
    args_path.write_text(json.dumps(args))
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(args["cache_dir"]),
               REPRO_CACHE_DISABLE="0")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), mode,
         str(args_path), str(out_path)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.perf_counter()))
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child {mode} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    out = json.loads(out_path.read_text())
    out["process_s"] = elapsed
    return out


def emit(result: Dict[str, Any]) -> None:
    """Print the run's result as the last line of standard output."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()

"""Shared pieces of the benchmark: statistics, the timed loop, the
operation ledger, memory readings and the result line.

Every workload runs *whole rounds*: a round is a fixed list of
operations, and the timed loop starts a new round only while the run's
time is not up.  Every run therefore attempts a multiple of the round's
operations, so the share of failed operations is the same in every run
whatever the seed or the host speed.
"""

import gc
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Thread-count variables of the BLAS/OpenMP runtimes NumPy and SciPy
#: may load.  Set to one before NumPy is imported, and inherited by
#: every process the benchmark starts.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Rounds after which ``peak_rss_mb`` is read.  Memory is taken at a
#: fixed amount of work, so a faster program that completes more
#: operations in the same seconds is not charged for retaining more.
RSS_ROUNDS = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Files a run leaves behind (shard journals, spans) live here, inside
#: the checkout.
RUN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench"
)


def pin_threads(environ=os.environ) -> None:
    for variable in THREAD_VARIABLES:
        environ[variable] = "1"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = 10
) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (such a percentile is no tail)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# Operation ledger
# ---------------------------------------------------------------------------
@dataclass
class Op:
    """One attempted operation of a timed run."""

    kind: str  # "session" (counts towards sessions_per_s) or "upload"
    start: float
    end: float
    traced: bool
    signal_s: float  # seconds of captured signal the operation analysed
    result: Any = None
    ok: bool = True
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class TimedRun:
    ops: List[Op]
    wall_s: float
    rss_mb: float

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def sessions(self, traced: Optional[bool] = None) -> List[Op]:
        return [
            op
            for op in self.ops
            if op.kind == "session" and (traced is None or op.traced == traced)
        ]


class TraceSchedule:
    """Alternates untraced and traced rounds of a traced run.

    Odd rounds are traced: an operation is traced when its round is.
    Interleaving the two kinds of round exposes both to the same host
    drift, and comparing them gives the tracing overhead.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def update(self, round_index: int) -> bool:
        self.tracer.enabled = round_index % 2 == 1
        return self.tracer.enabled


def sequential_rounds(
    seconds: float,
    rounds: Iterable[Sequence[Any]],
    run_op: Callable[[Any], Op],
    schedule: Optional[TraceSchedule] = None,
    fixed_point: Callable[[], float] = lambda: peak_rss_mb(),
) -> TimedRun:
    """Closed loop, one operation at a time, over whole rounds.

    ``run_op(spec)`` performs one operation and returns its :class:`Op`
    (the loop fills in ``traced``).  Memory is read by ``fixed_point``
    after :data:`RSS_ROUNDS` rounds, outside the clock.
    """
    ops: List[Op] = []
    rss_mb = 0.0
    excluded = 0.0  # time spent reading memory, taken off the clock
    start = perf_counter()
    for index, specs in enumerate(rounds):
        elapsed = perf_counter() - start - excluded
        if index >= RSS_ROUNDS and elapsed >= seconds:
            break
        traced = schedule.update(index) if schedule is not None else False
        for spec in specs:
            op = run_op(spec)
            op.traced = traced
            ops.append(op)
        if index + 1 == RSS_ROUNDS:
            paused = perf_counter()
            rss_mb = fixed_point()
            excluded += perf_counter() - paused
    if schedule is not None:
        schedule.tracer.enabled = False
    return TimedRun(ops=ops, wall_s=perf_counter() - start - excluded, rss_mb=rss_mb)


def repeat_setup(build: Callable[[], Any], discard: Callable[[Any], None] = lambda _: None):
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last product.

    Returns ``(product, median seconds)``.  Earlier products are handed
    to ``discard`` (outside the clock) so they hold no resources, and
    collected, so the memory high-water mark does not depend on when the
    garbage collector last ran.
    """
    durations = []
    product = None
    for _ in range(SETUP_REPEATS):
        if product is not None:
            discard(product)
            product = None
            gc.collect()
        began = perf_counter()
        product = build()
        durations.append(perf_counter() - began)
    return product, median(durations)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
def _vm_hwm_kb(pid: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Largest peak resident set among this process and ``pids``."""
    readings = [_vm_hwm_kb("self")]
    readings.extend(_vm_hwm_kb(str(pid)) for pid in pids)
    known = [value for value in readings if value is not None]
    if not known:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(known) / 1024.0


# ---------------------------------------------------------------------------
# Metrics and the result line
# ---------------------------------------------------------------------------
def end_to_end_metrics(run: TimedRun, setup_s: float) -> Dict[str, float]:
    sessions = run.sessions()
    return {
        "setup_s": setup_s,
        "sessions_per_s": len(sessions) / run.wall_s,
        "session_p50_s": median([op.latency_s for op in sessions]),
        "signal_s_per_s": sum(op.signal_s for op in run.ops) / run.wall_s,
        "peak_rss_mb": run.rss_mb,
    }


def tracing_overhead(run: TimedRun) -> Dict[str, float]:
    """Traced over untraced ``sessions_per_s`` and ``signal_s_per_s``.

    Rates are taken per second of operation time in each kind of block,
    so the ratio is 1 when tracing costs nothing and below 1 otherwise.
    """

    def rates(traced: bool) -> Tuple[float, float]:
        ops = [op for op in run.ops if op.traced == traced]
        busy = sum(op.latency_s for op in ops)
        sessions = sum(1 for op in ops if op.kind == "session")
        signal = sum(op.signal_s for op in ops)
        return sessions / busy, signal / busy

    traced_sessions, traced_signal = rates(True)
    plain_sessions, plain_signal = rates(False)
    return {
        "trace.sessions_per_s_ratio": traced_sessions / plain_sessions,
        "trace.signal_s_per_s_ratio": traced_signal / plain_signal,
    }


def session_tail_lines(run: TimedRun) -> List[str]:
    latencies = [op.latency_s for op in run.sessions()]
    lines = [f"sessions: {len(latencies)}  median {median(latencies):.4f} s"]
    for q in (0.9, 0.99):
        value = tail_percentile(latencies, q)
        shown = f"{value:.4f} s" if value is not None else "withheld (<10 samples beyond)"
        lines.append(f"session p{round(q * 100)}: {shown}")
    return lines


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    declared: Sequence[Dict[str, str]],
) -> None:
    """Print the result as the last line of standard output.

    ``declared`` is the metric list from ``BENCHMARK.json``; every
    declared metric must be present, and nothing else is printed.
    """
    missing = [item["name"] for item in declared if item["name"] not in metrics]
    extra = sorted(set(metrics) - {item["name"] for item in declared})
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            item["name"]: {"value": float(metrics[item["name"]]), "unit": item["unit"]}
            for item in declared
        },
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)

"""End-to-end Feisu benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload drilldown --seed 1 --seconds 15 --trace 0

``--trace 0`` times whole queries, client to finalize, with nothing
installed in the program, and prints the end-to-end metrics.  A run is a
few episodes (see :mod:`workloads`); after them it keeps replaying the
stream on the last deployment until ``--seconds`` of query (and
think-time) work are timed.

``--trace 1`` replays the episodes twice on identical deployments: once
plain, once with span tracing (``JobOptions(trace=True)``) and the layer
timers of :mod:`layers` installed.  It prints the per-layer table and the
tracing overhead (the traced twin's wall time over the plain twin's, same
queries).  Every count and span figure repeats exactly per seed.

Wall-clock figures are given at a reference machine speed.  The host is
shared: the same run's wall time moves by +-20% from minute to minute
with the load beside it.  So the run also times a fixed calibration
kernel (Python object loops, a string sort, heap operations: the kind of
work the program does) between queries, and scales every wall-clock
figure by ``CAL_REF_S / median kernel time``.  The raw figures and the
scale are printed too and kept in ``detail``.

Every answer is compared with :mod:`reference` outside the timed
intervals.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``detail {...}``) carries the input and answer digests and the
simulated figures the determinism test compares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("drilldown", "scan_burst", "all_on")
#: Span names reported per query (simulated seconds, summed over tasks).
SPANS = (
    "dispatch",
    "queue_wait",
    "index_probe",
    "scan",
    "aggregate",
    "result_return",
    "broadcast_ship",
)
#: Calibration kernel time that defines the reference machine speed.
CAL_REF_S = 0.020
#: Checked queries between two calibration samples.
CAL_EVERY = 4


def _import_program() -> float:
    """Import the library from this checkout; returns the seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import layers  # noqa: F401
    import reference  # noqa: F401
    import workloads  # noqa: F401

    return time.perf_counter() - t0


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (``q`` in (0, 1)).

    A Beta-weighted average of all order statistics instead of one or two
    of them.  Per-query times come in classes (index hit, numeric decode,
    string decode), and a plain sample median that falls in the gap
    between two classes jumps by a fifth when a single query changes
    class; the weighted estimate moves smoothly."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, len(cdf)), cdf)
    return float(np.diff(edges) @ x)


class Calibration:
    """Times a fixed kernel; the median gives the host's current speed.

    The kernel mixes the operations the program spends its time in: a
    per-row loop filling an object array, a string argsort, heap pushes
    and pops (the event loop), generator sends (simulated processes),
    many small NumPy calls and JSON/struct parsing (block headers)."""

    _UNIQUES = np.array(
        [f"http://site{i}.example.com/page{i % 25}" for i in range(500)], dtype=object
    )
    _CODES = (np.arange(10_000) * 7919) % 500
    _HEADER = json.dumps({"chunks": [{"name": f"c{i}", "length": i} for i in range(8)]})
    _BUFFER = np.arange(256, dtype=np.int64).tobytes()

    def __init__(self) -> None:
        self.samples = []

    @staticmethod
    def _echo():
        total = 0
        while True:
            total += yield total

    def sample(self) -> None:
        t0 = time.perf_counter()
        out = np.empty(len(self._CODES), dtype=object)
        for i, c in enumerate(self._CODES):
            out[i] = self._UNIQUES[c]
        np.argsort(out, kind="stable")
        heap = []
        for i in range(3_000):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
        while heap:
            heapq.heappop(heap)
        gen = self._echo()
        next(gen)
        for i in range(3_000):
            gen.send(i)
        for _ in range(500):
            np.frombuffer(self._BUFFER, dtype=np.int64)[::3].sum()
            json.loads(self._HEADER)
            struct.unpack_from("<I", self._BUFFER, 8)
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return CAL_REF_S / statistics.median(self.samples)


class Checker:
    """Counts outcomes, checks every answer and sums job counters."""

    def __init__(self, calibration=None):
        self.calibration = calibration
        self.reference = None
        self.int_nulls = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_wrong = ""
        self.answers = hashlib.sha256()
        self.prefix_sims = []
        self.spans = dict.fromkeys(SPANS, 0.0)
        self.traced = 0
        self.tasks = 0
        self.reused = 0
        self.completed = 0
        self.attempts = 0
        self.gateway_wait_s = 0.0

    def bind(self, dep) -> None:
        """Answer from ``dep``'s tables from now on."""
        import reference

        if self.reference is not None:
            self.int_nulls += self.reference.int_nulls
        self.reference = reference.Reference(dep.tables, dep.strings)

    def __call__(self, rec) -> None:
        import reference

        self.attempted += 1
        if self.calibration is not None and self.attempted % CAL_EVERY == 0:
            self.calibration.sample()
        if not rec.ok:
            self.failed += 1
            return
        got = [rec.result.column(c) for c in rec.result.columns]
        why = reference.mismatch(got, self.reference.answer(rec.sql))
        if why is not None:
            self.wrong += 1
            self.first_wrong = self.first_wrong or f"{rec.sql}: {why}"
        if rec.in_prefix:
            reference.digest_update(self.answers, got)
            self.prefix_sims.append(rec.sim_s)
        job = rec.job
        self.tasks += job.stats.tasks_total
        self.reused += job.stats.tasks_reused
        self.completed += job.stats.tasks_completed
        self.attempts += len(job.task_timeline)
        self.gateway_wait_s += rec.wait_s
        if job.trace is not None:
            self.traced += 1
            totals = job.trace.totals_by_name()
            for name in SPANS:
                self.spans[name] += totals.get(name, {}).get("total_s", 0.0)

    def sim_figures(self) -> dict:
        sims = self.prefix_sims
        return {
            "queries": len(sims),
            "p50_s": quantile(sims, 0.50),
            "p95_s": quantile(sims, 0.95),
            "mean_s": statistics.fmean(sims),
            "digest": hashlib.sha256(repr(sims).encode()).hexdigest()[:16],
        }

    def verdict(self) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed + self.wrong,
        }


def _inputs_digest(workload, dep) -> str:
    import workloads

    h = hashlib.sha256()
    for name in sorted(dep.tables):
        for col, values in sorted(dep.tables[name].items()):
            h.update(f"{name}.{col}".encode())
            h.update("\x1f".join(values).encode() if values.dtype == object else values.tobytes())
    if workload == "scan_burst":
        queries = [q.sql for t in workloads.scan_chunk(dep.schema, 0) for q in t.queries]
    else:
        stream = workloads.drilldown_stream(dep.schema, joins=workload == "all_on")
        queries = [next(stream) for _ in range(workloads.SAMPLES)]
    h.update("\n".join(queries).encode())
    return h.hexdigest()[:16]


def _deploy(workload, seed):
    import workloads

    gc.collect()  # drop the previous deployment before timing this one
    t0 = time.perf_counter()
    dep = workloads.deploy(workload, seed)
    return dep, time.perf_counter() - t0


def _counters(cluster) -> dict:
    """Daemon and SmartIndex counters of one cluster."""
    moved = promotions = 0
    if cluster.layouts is not None:
        moved += cluster.layouts.stats.rewritten_bytes
    if cluster.tiering is not None:
        moved += cluster.tiering.stats.promoted_bytes
        promotions = cluster.tiering.stats.promotions
    if cluster.elastic is not None:
        moved += cluster.elastic.rebalancer.stats.moved_bytes
    stats = cluster.aggregate_index_stats()
    return {
        "moved": moved,
        "promotions": promotions,
        "hits": stats.hits + stats.complement_hits + stats.subsumption_hits,
        "misses": stats.misses,
        "index_bytes": cluster.index_memory_used(),
    }


def _episodes(workload, seed, trace, checker, seconds=None, timer=None, calibration=None):
    """Deploy and replay every episode; ``seconds`` then extends the run
    on the last deployment.  Returns ``(outcome, setup times, last
    deployment, counter growth summed over the episodes)``."""
    import workloads
    from repro import JobOptions

    # Gateway sessions take no options; the traced run's layer timers
    # give their submissions JobOptions(trace=True).
    replayer = workloads.Replayer(workload, JobOptions(trace=bool(trace)), checker)
    setups = []
    growth = {}
    dep = None
    for episode in range(workloads.EPISODES[workload]):
        dep = None  # release the previous deployment before building anew
        if calibration is not None:
            calibration.sample()
        dep, took = _deploy(workload, workloads.data_seed(seed, episode))
        setups.append(took)
        checker.bind(dep)
        before = _counters(dep.cluster)
        if timer is not None:
            timer.install()
        try:
            replayer.segment(dep, in_prefix=True)
        finally:
            if timer is not None:
                timer.remove()
        for key, value in _counters(dep.cluster).items():
            growth[key] = growth.get(key, 0) + value - before[key]
    while seconds is not None and replayer.out.wall_s < seconds:
        replayer.segment(dep, in_prefix=False)
    checker.bind(dep)  # folds the last reference's counters in
    return replayer.out, setups, dep, growth


# -- untraced run: end-to-end metrics ------------------------------------------


def end_to_end(workload, seed, seconds, import_s):
    calibration = Calibration()
    checker = Checker(calibration)
    out, setups, dep, _ = _episodes(
        workload, seed, False, checker, seconds=seconds, calibration=calibration
    )
    checker.failed += out.rejected
    checker.attempted += out.rejected
    walls = [r.wall_s for r in out.records if r.ok]
    sim = checker.sim_figures()
    raw = {
        "setup_s": import_s + statistics.median(setups),
        "wall_qps": len(walls) / out.wall_s,
        "wall_p50_ms": quantile(walls, 0.50) * 1e3,
        "wall_p95_ms": quantile(walls, 0.95) * 1e3,
    }
    k = calibration.scale()
    metrics = {
        "setup_s": (raw["setup_s"] * k, "s"),
        "wall_qps": (raw["wall_qps"] / k, "queries/s"),
        "wall_p50_ms": (raw["wall_p50_ms"] * k, "ms"),
        "wall_p95_ms": (raw["wall_p95_ms"] * k, "ms"),
        "sim_p50_s": (sim["p50_s"], "sim_s"),
        "sim_p95_s": (sim["p95_s"], "sim_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs_digest": _inputs_digest(workload, dep),
        "answers_digest": checker.answers.hexdigest()[:16],
        "sim": sim,
        "raw": raw,
        "speed_scale": k,
        "calibration_samples": len(calibration.samples),
        "wall_samples": len(walls),
        "timed_s": out.wall_s,
        "setup_samples_s": setups,
        "import_s": import_s,
        "error_rate": (checker.failed + checker.wrong) / max(1, checker.attempted),
        "int_nulls_as_zero": checker.int_nulls,
        "first_wrong": checker.first_wrong,
    }
    return checker.verdict(), metrics, detail


# -- traced run: per-layer metrics ---------------------------------------------


def per_layer(workload, seed):
    import layers
    import workloads

    plain = Checker()
    base, _, _, _ = _episodes(workload, seed, False, plain)
    plain_wall = base.wall_s
    base = None  # free before the traced twin

    checker = Checker()
    timer = layers.LayerTimer()
    out, _, _, growth = _episodes(workload, seed, True, checker, timer=timer)
    self_s, counts = timer.totals()

    q = max(1, checker.attempted)
    wall = out.wall_s
    metrics = {}
    for name in layers.TIME_LAYERS:
        metrics[f"{name}_ms"] = (self_s.get(name, 0.0) / q * 1e3, "ms")
    metrics["columnar.decode_ms"] = (
        (self_s.get("columnar.decode", 0.0) + self_s.get("columnar.string_decode", 0.0)) / q * 1e3,
        "ms",
    )
    metrics["storage.gap_wall_ms"] = (out.gap_wall_s / q * 1e3, "ms")
    for name in list(metrics):
        metrics[name[: -len("_ms")] + ".share"] = (metrics[name][0] * q / 1e3 / wall, "ratio")
    lookups = growth["hits"] + growth["misses"]
    metrics.update(
        {
            "columnar.rows_decoded_per_query": (counts.get("rows_decoded", 0.0) / q, "rows"),
            "sql.parse_calls_per_query": (counts.get("sql.parse", 0.0) / q, "count"),
            "storage.read_mb_per_query": (counts.get("bytes_read", 0.0) / q / 1e6, "MB"),
            "sim.events_per_query": (counts.get("sim.loop", 0.0) / q, "count"),
            "cluster.tasks_per_query": (checker.tasks / q, "count"),
            "cluster.attempts_per_task": (checker.attempts / max(1, checker.completed), "ratio"),
            "cluster.tasks_reused_ratio": (checker.reused / max(1, checker.tasks), "ratio"),
            "gateway.jobs_in_flight": (
                out.inflight_job_s / out.sim_span_s if out.sim_span_s else 0.0,
                "count",
            ),
            "gateway.queue_wait_s": (checker.gateway_wait_s / q, "sim_s"),
            "index.hit_ratio": (growth["hits"] / lookups if lookups else 0.0, "ratio"),
            "index.memory_mb": (
                growth["index_bytes"] / 1e6 / workloads.EPISODES[workload],
                "MB",
            ),
            "engine.result_mb_per_query": (counts.get("result_bytes", 0.0) / q / 1e6, "MB"),
            "storage.replica_mb_moved": (growth["moved"] / 1e6, "MB"),
            "storage.variant_read_ratio": (
                counts.get("variant_reads", 0.0) / counts["layout_reads"]
                if counts.get("layout_reads")
                else 0.0,
                "ratio",
            ),
            "storage.promotions": (float(growth["promotions"]), "count"),
            "trace.overhead_ratio": (wall / plain_wall, "ratio"),
        }
    )
    for name in SPANS:
        metrics[f"span.{name}_s"] = (checker.spans[name] / max(1, checker.traced), "sim_s")

    detail = {
        "workload": workload,
        "seed": seed,
        "answers_digest": checker.answers.hexdigest()[:16],
        "sim": checker.sim_figures(),
        "plain_answers_digest": plain.answers.hexdigest()[:16],
        "plain_sim": plain.sim_figures(),
        "traced_queries": checker.traced,
        "traced_wall_s": wall,
        "plain_wall_s": plain_wall,
        "first_wrong": checker.first_wrong or plain.first_wrong,
    }
    verdict = checker.verdict()
    verdict["correct"] = verdict["correct"] and plain.wrong == 0
    return verdict, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end Feisu benchmark (one run).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    if args.trace:
        verdict, metrics, detail = per_layer(args.workload, args.seed)
    else:
        verdict, metrics, detail = end_to_end(args.workload, args.seed, args.seconds, import_s)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<34} {value:>14.6g} {unit}")
    if not args.trace:
        for name, value in detail["raw"].items():
            print(f"{args.workload:<11} {'raw.' + name:<34} {value:>14.6g} (measured)")
        print(f"{args.workload:<11} {'speed_scale':<34} {detail['speed_scale']:>14.6g} ratio")
        print(f"{args.workload:<11} {'error_rate':<34} {detail['error_rate']:>14.6g} ratio")
        print(f"{args.workload:<11} {'wall_samples':<34} {detail['wall_samples']:>14d} queries")
    print("detail " + json.dumps(detail, sort_keys=True))
    verdict["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())

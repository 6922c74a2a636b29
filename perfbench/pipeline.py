"""Workloads, measured cycles and correctness checks of the benchmark.

Every workload runs the same operations on its own inputs, so every
end-to-end metric is reported on every workload; what differs is which
layer dominates.  ``DESIGN.md`` records why each workload exists and
which metric each layer should move.

Set-up (data generation, a warm-up fit, the write-ahead-logged
bootstrap of the live corpus, ``publish_base`` and both ``connect``
calls) is repeated and reported as ``setup_s``.  The measured window
then runs *cycles* until ``seconds`` have passed (and at least
``min_cycles`` cycles ran).  One cycle is:

1. one ``ALID().fit`` of the corpus (``fit_s``, ``avg_f``);
2. ``sweep_pairs`` pairs of closed-loop sweeps of the query set in
   ``BLOCK_ROWS``-row blocks, one client, alternating
   ``connect(base, workers=2)`` and ``connect(base)`` (``sharded_qps``,
   ``assign_qps``);
3. during the first ``min_cycles`` cycles, an equal share of the
   streamed rows in ``BATCH_ROWS``-row batches, each ``ingest`` ->
   ``publish_delta`` -> ``apply_delta`` -> one read block
   (``ingest_rows_per_s``, ``freshness_ms``);
4. one ``IngestService.recover`` from a copy of the journal as it stood
   when set-up ended (``recover_s``).

Interleaving spreads every metric's samples over the whole window, so a
burst of load on the host moves a minority of each metric's samples;
each metric is the median of its samples.

Timings are *host-normalised*: before each set-up and each cycle the
program-independent :func:`reference_task` is timed, and every timing of
the run is scaled by ``REFERENCE_S / median reference time`` (rates by
the inverse).  A shared host that slows down for minutes slows the
reference task too, so the scaled timings keep their value; a slower
program does not slow the reference task.  The raw samples are kept for
the detailed report.  After the window the full
journal (bootstrap and every streamed batch) is recovered once more and
checked against the live stream.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from repro import ALID, ALIDConfig, make_synthetic_mixture
from repro.eval.metrics import average_f1
from repro.obs import PhaseProfiler
from repro.obs.trace import TraceRecorder
from repro.serve import ClusterService, IngestService, connect
from repro.serve.wal import WriteAheadLog
from repro.streaming import StreamingALID

#: Rows per closed-loop read request.
BLOCK_ROWS = 1024
#: Rows per streamed ingest batch.
BATCH_ROWS = 250
#: Rows of the warm-up fit that keeps first-call costs out of ``fit_s``.
WARM_ROWS = 1000
#: Shard workers of the sharded handle.
WORKERS = 2
#: Cycles a measured window runs at least, and sweep pairs per cycle.
#: Samples of identical work vary by about 15% on a shared 2-core host;
#: five cycles fit the run-time budget of the slowest workload.
MIN_CYCLES = 5
SWEEP_PAIRS = 2
#: The program's own configuration; the seed fixes its LSH draws only.
CONFIG = {"seed": 0}

#: Seconds :func:`reference_task` takes on the quiet 2-core development
#: host: the scale of every host-normalised timing.
REFERENCE_S = 0.04
#: Reference-task repetitions before each set-up and each cycle.
REFERENCE_REPS = 5
#: Sampled rates: normalised by the inverse scale.
RATES = ("assign_qps", "sharded_qps")

OP_KINDS = ("fit", "assign_block", "ingest_batch", "publish", "apply",
            "recovery")

#: Returned by :meth:`Ops.call` for an operation that raised.
FAILED = object()


@dataclasses.dataclass
class Inputs:
    """One workload's generated arrays."""

    corpus: np.ndarray  # fitted by ALID().fit
    truth: list  # ground-truth clusters of the corpus rows
    base: np.ndarray  # bootstraps the live corpus
    stream: np.ndarray  # arrives in BATCH_ROWS batches beside reads
    queries: np.ndarray  # swept in BLOCK_ROWS blocks


def reference_task() -> float:
    """Wall seconds of a fixed NumPy and Python mix that uses no repro code."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    data = rng.random((20_000, 32))
    gathered = data[rng.integers(0, 20_000, 50_000)]
    keys = rng.integers(0, 5_000, 200_000)
    np.unique(keys[np.argsort(keys, kind="stable")])
    np.exp(-np.abs(gathered[:1000] @ data[:500].T))
    total = 0
    for i in range(30_000):
        total += i % 7
    return time.perf_counter() - t0


def _truth(labels: np.ndarray) -> list:
    return [np.flatnonzero(labels == c) for c in np.unique(labels[labels >= 0])]


def _sample_live(dataset, seed: int, n_base: int, n_stream: int,
                 n_queries: int) -> Inputs:
    """Fit workloads: fit the whole corpus, serve a sample of it live."""
    order = np.random.default_rng([seed, 1]).permutation(
        dataset.data.shape[0])
    return Inputs(
        corpus=dataset.data,
        truth=_truth(dataset.labels),
        base=dataset.data[order[:n_base]],
        stream=dataset.data[order[n_base : n_base + n_stream]],
        queries=dataset.data[np.sort(order[:n_queries])],
    )


def fit_noise(seed: int) -> Inputs:
    """95% uniform noise: the LSH substrate dominates the fit."""
    dataset = make_synthetic_mixture(
        n=20_000, regime="bounded", bound=1000, n_clusters=10, dim=32,
        seed=seed,
    )
    return _sample_live(dataset, seed, 2000, 2000, 10_000)


def fit_dense(seed: int) -> Inputs:
    """No noise: the paper's dynamics (LID, CIVS, extend) dominate."""
    dataset = make_synthetic_mixture(
        n=5000, regime="omega_n", n_clusters=10, dim=32, seed=seed
    )
    return _sample_live(dataset, seed, 1500, 1500, 5000)


def serve_live(seed: int) -> Inputs:
    """A live corpus: read sweeps, writes beside reads, recovery."""
    n_base, n_stream = 6000, 2000
    dataset = make_synthetic_mixture(
        n=n_base + n_stream, regime="bounded", bound=1000, n_clusters=10,
        dim=32, seed=seed,
    )
    order = np.random.default_rng([seed, 1]).permutation(n_base + n_stream)
    base = dataset.data[order[:n_base]]
    return Inputs(
        corpus=base,
        truth=_truth(dataset.labels[order[:n_base]]),
        base=base,
        stream=dataset.data[order[n_base:]],
        queries=base,
    )


WORKLOADS = {"fit_noise": fit_noise, "fit_dense": fit_dense,
             "serve_live": serve_live}


class Ops:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.attempted = dict.fromkeys(OP_KINDS, 0)
        self.failed = dict.fromkeys(OP_KINDS, 0)

    def call(self, kind: str, fn, *args, **kwargs):
        """Run one operation; a raise is counted and returns FAILED."""
        self.attempted[kind] += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[kind] += 1
            traceback.print_exc(file=sys.stderr)
            return FAILED

    def merge(self, other: "Ops") -> None:
        for kind in OP_KINDS:
            self.attempted[kind] += other.attempted[kind]
            self.failed[kind] += other.failed[kind]

    def report(self) -> dict:
        return {
            kind: {"attempted": self.attempted[kind],
                   "failed": self.failed[kind]}
            for kind in OP_KINDS
        }


class Rig:
    """The live corpus: a journaled ingest service and three handles.

    ``single`` and ``sharded`` stay on the base snapshot, so every sweep
    reads the same state; ``live`` receives the streamed deltas.
    """

    def __init__(self, inputs: Inputs, root: pathlib.Path, recorder=None):
        self.root = root
        self.wal_path = root / "ingest.wal"
        self.service = IngestService(
            StreamingALID(ALIDConfig(**CONFIG)),
            repeel="sync",
            wal=WriteAheadLog(self.wal_path),
        )
        self.single = self.sharded = self.live = None
        try:
            self.service.ingest(inputs.base)
            self.service.publish_base(root / "base")
            # The journal as set-up leaves it: what recover_s replays.
            self.base_wal = root / "base.wal"
            shutil.copyfile(self.wal_path, self.base_wal)
            stream = self.service.stream
            self.base_print = (stream.result().counters.entries_computed,
                               stream.n_clusters)
            warm = inputs.queries[:BLOCK_ROWS]
            self.single = connect(root / "base")
            self.single.assign(warm)
            self.live = connect(root / "base")
            self.live.assign(warm)
            self.sharded = connect(
                root / "base", workers=WORKERS, tracer=recorder
            )
            self.sharded.assign(warm)
        except BaseException:
            self.close()
            raise

    def close_sharded(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def close(self) -> None:
        self.close_sharded()
        for name in ("single", "live"):
            handle = getattr(self, name)
            if handle is not None:
                handle.close()
                setattr(self, name, None)
        self.service.close()


def _assign_all(handle, queries: np.ndarray):
    """Labels and scores of every query, served in blocks."""
    parts = [handle.assign(queries[lo : lo + BLOCK_ROWS])
             for lo in range(0, queries.shape[0], BLOCK_ROWS)]
    return (np.concatenate([p.labels for p in parts]),
            np.concatenate([p.scores for p in parts]))


def _same(a, b) -> bool:
    return (a is not None and b is not None
            and a[0].tobytes() == b[0].tobytes()
            and a[1].tobytes() == b[1].tobytes())


def _median(values) -> float:
    return statistics.median(values) if values else math.inf


def _bytes_under(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Pass:
    """Set-up plus a measured window of cycles (optionally traced)."""

    def __init__(self, maker, seed: int, workdir: pathlib.Path, *,
                 seconds: float, sweep_pairs: int, setup_reps: int,
                 min_cycles: int, imports_s: float, tracer=None):
        self.maker = maker
        self.imports_s = imports_s
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.sweep_pairs = sweep_pairs
        self.setup_reps = setup_reps
        self.min_cycles = min_cycles
        self.tracer = tracer
        self.recorder = TraceRecorder() if tracer is not None else None
        self.profiler = PhaseProfiler() if tracer is not None else None
        self.ops = Ops()
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, float] = {}
        # Raw samples as measured, and the reference-task times.
        self.raw: dict[str, list[float]] = {
            name: [] for name in ("setup_s", "fit_s", "assign_qps",
                                  "sharded_qps", "ingest_s", "freshness_ms",
                                  "recover_s")
        }
        self.references: list[float] = []
        self.fit_prints: list = []
        self.answers: list = []
        self.recovered_prints: list = []
        self.churn = {"rows": 0, "absorbed": 0, "delta_bytes": []}

    def _calibrate(self) -> None:
        """Time the reference task (spread over the run, like the samples)."""
        self.references.extend(
            reference_task() for _ in range(REFERENCE_REPS))

    def _sample(self, name: str, raw: float) -> None:
        self.raw[name].append(raw)

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    # ------------------------------------------------------------------
    def run(self) -> "Pass":
        rig = self._setup()
        if self.tracer is not None:
            self.tracer.install()
        try:
            try:
                self._window(rig)
                self._check_chain_tip(rig)
            finally:
                # The final recovery needs the journal closed, as after
                # a crash.
                rig.close()
            self._check_full_recovery(rig)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self._summarize(rig)
        return self

    def _setup(self) -> Rig:
        prints, rig = [], None
        for rep in range(self.setup_reps):
            if rig is not None:
                rig.close()
                shutil.rmtree(rig.root)
            self._calibrate()
            t0 = time.perf_counter()
            self.inputs = inputs = self.maker(self.seed)
            ALID(ALIDConfig(**CONFIG)).fit(inputs.base[:WARM_ROWS])
            root = self.workdir / f"rig{rep}"
            root.mkdir()
            rig = Rig(inputs, root, self.recorder)
            self._sample("setup_s", time.perf_counter() - t0)
            prints.append(rig.base_print)
        self.checks["setup_repeats"] = len(set(prints)) == 1
        return rig

    def _window(self, rig: Rig) -> None:
        stream = self.inputs.stream
        # Contiguous shares of the stream, one per churning cycle.
        shares = np.array_split(
            np.arange(0, stream.shape[0], BATCH_ROWS), self.min_cycles)
        cycles = 0
        started = time.perf_counter()
        while (cycles < self.min_cycles
               or time.perf_counter() - started < self.seconds):
            self._calibrate()
            self._fit_once()
            for _ in range(self.sweep_pairs):
                self._sweep_pair(rig)
            if cycles < self.min_cycles:
                self._churn(rig, shares[cycles])
            self._recover_once(rig)
            cycles += 1
        self.cycles = cycles
        rig.close_sharded()

    # ------------------------------------------------------------------
    def _fit_once(self) -> None:
        inputs = self.inputs
        t0 = time.perf_counter()
        with self._span("fit"), (self.profiler or contextlib.nullcontext()):
            result = self.ops.call(
                "fit", ALID(ALIDConfig(**CONFIG)).fit, inputs.corpus
            )
        wall = time.perf_counter() - t0
        if result is FAILED:
            self._sample("fit_s", math.inf)
            self.fit_prints.append(None)
            return
        self._sample("fit_s", wall)
        avg_f = average_f1([c.members for c in result.clusters], inputs.truth)
        self.fit_prints.append(
            (result.counters.entries_computed, result.n_clusters, avg_f))
        self.fit_result = result

    def _sweep(self, handle, name: str):
        """One pass over the query set: (rows answered / s, answers, stats)."""
        queries = self.inputs.queries
        labels, scores, candidates = [], [], []
        answered = entries = 0
        t0 = time.perf_counter()
        with self._span(name):
            for lo in range(0, queries.shape[0], BLOCK_ROWS):
                out = self.ops.call(
                    "assign_block", handle.assign,
                    queries[lo : lo + BLOCK_ROWS],
                )
                if out is FAILED:
                    continue
                answered += out.n_queries
                labels.append(out.labels)
                scores.append(out.scores)
                candidates.append(out.n_candidates)
                entries += out.entries_computed
        wall = time.perf_counter() - t0
        complete = answered == queries.shape[0]
        answers = ((np.concatenate(labels), np.concatenate(scores))
                   if complete else None)
        stats = {"wall": wall, "entries": entries,
                 "candidates": np.concatenate(candidates) if complete else None}
        return answered / wall, answers, stats

    def _sweep_pair(self, rig: Rig) -> None:
        if self.recorder is not None:
            self.recorder.clear()
        rate, answers, self.sharded_stats = self._sweep(
            rig.sharded, "sweep.sharded")
        self._sample("sharded_qps", rate)
        self.answers.append(answers)
        rate, answers, self.single_stats = self._sweep(
            rig.single, "sweep.single")
        self._sample("assign_qps", rate)
        self.answers.append(answers)

    def _churn(self, rig: Rig, starts: np.ndarray) -> None:
        service, handle = rig.service, rig.live
        stream = self.inputs.stream
        read = self.inputs.queries[:BLOCK_ROWS]
        churn = self.churn
        with self._span("churn"):
            for lo in starts:
                t0 = time.perf_counter()
                report = self.ops.call(
                    "ingest_batch", service.ingest, stream[lo : lo + BATCH_ROWS]
                )
                t1 = time.perf_counter()
                self._sample("ingest_s", t1 - t0)
                if report is FAILED:
                    continue
                churn["rows"] += report.n_points
                churn["absorbed"] += report.absorbed
                path = rig.root / f"delta_{lo // BATCH_ROWS:04d}"
                ok = (self.ops.call("publish", service.publish_delta, path)
                      is not FAILED
                      and self.ops.call("apply", handle.apply_delta, path)
                      is not FAILED)
                self._sample("freshness_ms",
                             1000.0 * (time.perf_counter() - t1) if ok
                             else math.inf)
                if ok:
                    churn["delta_bytes"].append(_bytes_under(path))
                self.ops.call("assign_block", handle.assign, read)

    def _recover(self, wal: pathlib.Path, root: pathlib.Path):
        """Recover a service from ``wal``: (seconds, service or FAILED)."""
        t0 = time.perf_counter()
        with self._span("recover"):
            service = self.ops.call("recovery", IngestService.recover,
                                    wal, root)
        return time.perf_counter() - t0, service

    def _recover_once(self, rig: Rig) -> None:
        sample = rig.root / "recover.wal"
        shutil.copyfile(rig.base_wal, sample)
        wall, service = self._recover(sample, rig.root)
        if service is FAILED:
            self._sample("recover_s", math.inf)
            self.recovered_prints.append(None)
            return
        with service:
            stream = service.stream
            self.recovered_prints.append(
                (stream.result().counters.entries_computed,
                 stream.n_clusters))
        self._sample("recover_s", wall)

    # ------------------------------------------------------------------
    def _check_chain_tip(self, rig: Rig) -> None:
        stream = rig.service.stream
        self.stream_entries = int(stream.result().counters.entries_computed)
        with ClusterService(stream.to_snapshot()) as live:
            self.live_answers = _assign_all(live, self.inputs.queries)
        # The chain tip as served must answer like the live stream.
        self.checks["chain_tip_equals_live"] = _same(
            _assign_all(rig.live, self.inputs.queries), self.live_answers)

    def _check_full_recovery(self, rig: Rig) -> None:
        self.full_recover_s, service = self._recover(rig.wal_path, rig.root)
        ok = False
        if service is not FAILED:
            with service:
                entries = service.stream.result().counters.entries_computed
                with ClusterService(service.stream.to_snapshot()) as served:
                    answers = _assign_all(served, self.inputs.queries)
            ok = (entries == self.stream_entries
                  and _same(answers, self.live_answers))
        self.checks["recovered_equals_live"] = ok

    def _summarize(self, rig: Rig) -> None:
        prints = self.fit_prints
        self.fit_print = prints[0]
        self.checks["fit_repeats"] = (
            prints[0] is not None and len(set(prints)) == 1)
        self.checks["fit_found_clusters"] = (
            prints[0] is not None and prints[0][1] >= 1 and prints[0][2] > 0)
        self.checks["sharded_equals_single"] = all(
            _same(a, self.answers[1]) for a in self.answers)
        self.checks["recovered_base_equals_live"] = all(
            p == rig.base_print for p in self.recovered_prints)
        metrics = self.metrics
        self.scale = scale = REFERENCE_S / statistics.median(self.references)
        samples = {
            name: [v / scale if name in RATES else v * scale for v in raw]
            for name, raw in self.raw.items()
        }
        metrics["setup_s"] = scale * self.imports_s + statistics.median(
            samples["setup_s"])
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        # Deterministic work of one fit, one single-process sweep, and the
        # live stream (bootstrap plus every streamed batch).
        metrics["entries_computed"] = (
            (prints[0][0] if prints[0] is not None else 0)
            + self.single_stats["entries"] + self.stream_entries)
        metrics["fit_s"] = _median(samples["fit_s"])
        if prints[0] is not None:
            metrics["avg_f"] = prints[0][2]
        metrics["assign_qps"] = _median(samples["assign_qps"])
        metrics["sharded_qps"] = _median(samples["sharded_qps"])
        metrics["ingest_rows_per_s"] = (
            self.churn["rows"] / sum(samples["ingest_s"]))
        metrics["freshness_ms"] = _median(samples["freshness_ms"])
        metrics["recover_s"] = _median(samples["recover_s"])

    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of a traced one-cycle pass (see DESIGN.md)."""
        tracer = self.tracer

        def self_s(totals, name):
            return totals.get(name, {}).get("self_s", 0.0)

        def calls(totals, name):
            return totals.get(name, {}).get("calls", 0)

        def median_duration(totals, name):
            return _median(totals.get(name, {}).get("durations", []))

        fit = tracer.layer_totals("fit")
        phases = self.profiler.summary()
        lid = phases.get("lid", {})
        cache = phases.get("cache", {})
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        meta = self.fit_result.metadata
        single = tracer.layer_totals("sweep.single")
        churn = tracer.layer_totals("churn")
        shard_spans = self.recorder.spans("shard_assign")
        longest: dict = {}
        for span in shard_spans:
            longest[span.trace_id] = max(longest.get(span.trace_id, 0.0),
                                         span.duration)
        labels = self.answers[-1][0]
        out = {
            "lsh.build_s": self_s(fit, "lsh.build"),
            "lsh.prefilter_s": self_s(fit, "lsh.prefilter"),
            "lsh.prefilter_calls": calls(fit, "lsh.prefilter"),
            "lsh.components_s": self_s(fit, "lsh.components"),
            "lsh.components_calls": calls(fit, "lsh.components"),
            "lsh.deactivate_s": self_s(fit, "lsh.deactivate"),
            "lsh.deactivate_calls": calls(fit, "lsh.deactivate"),
            "core.detect_s": self_s(fit, "core.detect"),
            "dynamics.lid_s": lid.get("wall_seconds", 0.0),
            "dynamics.lid_iterations": lid.get("iterations", 0),
            "core.civs_s": phases.get("civs", {}).get("wall_seconds", 0.0),
            "core.extend_s": phases.get("extend", {}).get("wall_seconds", 0.0),
            "affinity.cache_hits": hits,
            "affinity.cache_misses": misses,
            "affinity.cache_evictions": cache.get("evictions", 0),
            "affinity.cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0),
            "core.seed_rounds": meta["seed_rounds"],
            "core.lid_runs": meta["lid_runs"],
            "core.prefilter_ratio": (
                meta["noise_prefiltered"] / meta["peeling_rounds"]),
            "fit.unattributed_s": self_s(fit, "fit"),
            "serve.sweep_s": self.single_stats["wall"],
            "lsh.query_s": self_s(single, "lsh.query"),
            "serve.verify_s": self_s(single, "serve.verify"),
            "affinity.point_block_s": self_s(single, "affinity.point_block"),
            "serve.candidates_per_query": float(
                self.single_stats["candidates"].mean()),
            "serve.assigned_ratio": float((labels >= 0).mean()),
            "serve.sharded_sweep_s": self.sharded_stats["wall"],
            "serve.shard_assign_s": sum(s.duration for s in shard_spans),
            "serve.router_overhead_s": (
                self.sharded_stats["wall"] - sum(longest.values())),
            "streaming.absorb_s": self_s(churn, "streaming.absorb"),
            "lsh.insert_s": self_s(churn, "lsh.insert"),
            "streaming.repeel_s": self_s(churn, "streaming.repeel"),
            "streaming.components_s": self_s(churn, "streaming.components"),
            "serve.wal_append_s": self_s(churn, "serve.wal_append"),
            "serve.wal_records": calls(churn, "serve.wal_append"),
            "serve.publish_s": median_duration(churn, "serve.publish"),
            "serve.delta_bytes": _median(self.churn["delta_bytes"]),
            "serve.apply_s": median_duration(churn, "serve.apply"),
            "serve.absorbed_ratio": (
                self.churn["absorbed"] / self.churn["rows"]),
        }
        return {name: float(value) for name, value in out.items()}

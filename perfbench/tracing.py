"""Wrapper spans for the traced benchmark run.

The traced run wraps public calls into each layer (``lsh``, ``core``,
``dynamics``, ``affinity``, ``streaming``, ``serve``) from here, without
touching the program: :meth:`SpanTracer.install` swaps each target for a
wrapper that opens a span, and :meth:`SpanTracer.uninstall` puts the
originals back.  The untraced run never imports a wrapper.

A span records its name, start, end and parent span; every span of one
run carries the same run id.  Spans are kept in memory and written out
once, when the run ends.  A span's self time is its duration minus the
time its child spans cover, so the self times of a stage's spans add up
to the stage's wall time.
"""

from __future__ import annotations

import functools
import json
import time


def layer_targets():
    """``(owner, attribute, span name)`` of every wrapped layer call."""
    import repro.serve.assigner as assigner
    from repro.affinity.oracle import AffinityOracle
    from repro.core.alid import ALIDEngine
    from repro.lsh.index import LSHIndex
    from repro.serve.ingest import IngestService
    from repro.serve.service import ClusterService
    from repro.serve.wal import WriteAheadLog
    from repro.streaming.online import StreamingALID

    return [
        (LSHIndex, "__init__", "lsh.build"),
        (LSHIndex, "colliding_mask", "lsh.prefilter"),
        (LSHIndex, "collision_components", "lsh.components"),
        (LSHIndex, "deactivate", "lsh.deactivate"),
        (LSHIndex, "query_points_grouped", "lsh.query"),
        (LSHIndex, "insert", "lsh.insert"),
        (ALIDEngine, "detect_cohort", "core.detect"),
        (ALIDEngine, "detect_from_seed", "core.detect"),
        (AffinityOracle, "point_block", "affinity.point_block"),
        (assigner, "point_payoffs", "serve.verify"),
        (StreamingALID, "partial_fit", "streaming.absorb"),
        (StreamingALID, "discover", "streaming.repeel"),
        (StreamingALID, "collision_components", "streaming.components"),
        (WriteAheadLog, "append", "serve.wal_append"),
        (IngestService, "publish_delta", "serve.publish"),
        (ClusterService, "apply_delta", "serve.apply"),
    ]


class SpanTracer:
    """In-memory span recorder for one single-threaded benchmark pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span id, name, parent id, start, end), in completion order.
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str):
        """Context manager timing one span under the current one."""
        return _Span(self, name)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper recording ``name``."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with _Span(self, name):
                return original(*args, **kwargs)

        # Restore the raw namespace entry, not the bound lookup result.
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every target of :func:`layer_targets`."""
        for owner, attribute, name in layer_targets():
            self.wrap(owner, attribute, name)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def _self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return {
            sid: (end - start) - covered.get(sid, 0.0)
            for sid, _, _, start, end in self.spans
        }

    def _under(self, root: str) -> set[int]:
        """Ids of the spans that descend from spans named ``root``."""
        parents = {sid: parent for sid, _, parent, _, _ in self.spans}
        roots = {sid for sid, name, _, _, _ in self.spans if name == root}
        out = set()
        for sid in parents:
            node = sid
            while node is not None:
                if node in roots:
                    out.add(sid)
                    break
                node = parents[node]
        return out

    def layer_totals(self, root: str) -> dict[str, dict[str, float]]:
        """Per span name under ``root``: self seconds, calls, durations."""
        selfs = self._self_times()
        members = self._under(root)
        out: dict[str, dict] = {}
        for sid, name, _, start, end in self.spans:
            if sid not in members:
                continue
            entry = out.setdefault(
                name, {"self_s": 0.0, "calls": 0, "durations": []}
            )
            entry["self_s"] += selfs[sid]
            entry["calls"] += 1
            entry["durations"].append(end - start)
        return out

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span, tagged with the run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "span": sid,
                            "name": name,
                            "parent": parent,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                fh.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: SpanTracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.sid = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append((self.sid, self.name, self.parent, self.start, end))
        return False

"""Wall-clock spans around calls into the program's layers.

The traced run installs wrappers around the public entry points of each
hot-path module (:func:`install`), records one span per call, and
restores every original afterwards (:meth:`Tracer.restore`).  Nothing
in the program changes: the wrappers live here and are only installed
for the traced run.

Synchronous wrappers keep a call stack, so each span knows its parent
and a layer's *self* time is its spans' duration minus the part covered
by nested spans.  Coroutine wrappers (the coordinator's socket waits)
can interleave, so they do not join the stack: their time is counted as
the union of their intervals, which concurrent waits on several
workers would otherwise double count.

Spans stay in memory (up to :data:`SPAN_CAP`; the per-layer totals are
exact regardless) and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: Spans kept for the written trace; totals never depend on it.
SPAN_CAP = 20_000

now_ns = time.perf_counter_ns


class Tracer:
    """Span recorder: per-layer call counts, inclusive and self time."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive ns, self ns]
        self.layers: dict[str, list[int]] = {}
        #: Coroutine layers: name -> [(start, end), ...]
        self.waits: dict[str, list[tuple[int, int]]] = {}
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, str, int, int, int, str]] = []
        self.dropped_spans = 0
        self.run_id = ""
        self._stack: list[list[int]] = []  # [span id, start, child ns]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------

    def _record(self, sid: int, name: str, start: int, end: int,
                parent: int) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent,
                               self.run_id))
        else:
            self.dropped_spans += 1

    def _parent(self) -> int:
        return self._stack[-1][0] if self._stack else 0

    def enter(self) -> list[int]:
        sid = self._next_id
        self._next_id += 1
        frame = [sid, now_ns(), 0]
        self._stack.append(frame)
        return frame

    def leave(self, name: str, frame: list[int]) -> int:
        end = now_ns()
        self._stack.pop()
        dur = end - frame[1]
        layer = self.layers.setdefault(name, [0, 0, 0])
        layer[0] += 1
        layer[1] += dur
        layer[2] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        self._record(frame[0], name, frame[1], end, self._parent())
        return dur

    def add_span(self, name: str, start: int, end: int) -> None:
        """A span measured outside this process's stack (process
        start-up, timed by the parent's clock)."""
        layer = self.layers.setdefault(name, [0, 0, 0])
        layer[0] += 1
        layer[1] += end - start
        layer[2] += end - start
        if self._stack:
            self._stack[-1][2] += end - start
        sid = self._next_id
        self._next_id += 1
        self._record(sid, name, start, end, self._parent())

    def sync(self, name: str, fn: Callable[..., Any],
             after: Callable[[Any, tuple[Any, ...]], None] | None = None
             ) -> Callable[..., Any]:
        """Wrap a plain function; ``after(result, args)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(name, frame)
            if after is not None:
                after(out, args)
            return out
        return wrapper

    def coro(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a coroutine function (not on the call stack)."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._parent()
            start = now_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = now_ns()
                layer = tracer.layers.setdefault(name, [0, 0, 0])
                layer[0] += 1
                layer[1] += end - start
                layer[2] += end - start
                tracer.waits.setdefault(name, []).append((start, end))
                tracer._record(sid, name, start, end, parent)
        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        """Replace ``owner.attr``; :meth:`restore` puts it back."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def self_s(self, name: str) -> float:
        layer = self.layers.get(name)
        return layer[2] / 1e9 if layer else 0.0

    def total_s(self, name: str) -> float:
        layer = self.layers.get(name)
        return layer[1] / 1e9 if layer else 0.0

    def calls(self, name: str) -> int:
        layer = self.layers.get(name)
        return layer[0] if layer else 0

    def wait_union_s(self, *names: str) -> float:
        """Seconds covered by any interval of the named coroutine
        layers (all of them when no name is given)."""
        intervals = sorted(
            iv for name, ivs in self.waits.items()
            if not names or name in names for iv in ivs)
        total = 0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total / 1e9

    def write(self, path: Path) -> None:
        """Write every kept span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, name, start, end, parent, run in self.spans:
                out.write(json.dumps(
                    {"id": sid, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent, "run": run}) + "\n")
            out.write(json.dumps(
                {"dropped_spans": self.dropped_spans}) + "\n")


#: Coroutine layers whose wait counts as attributed time.
WAIT_LAYERS = ("serve.harness.wait_for_workers",
               "serve.framing.send", "serve.framing.recv")


def install(tracer: Tracer, schemes: list[str]) -> None:
    """Wrap every layer entry point (call :meth:`Tracer.restore` after).

    Imports happen here, so the untraced run never loads this wiring.
    """
    from repro.core import agg_index, multiquery, workload
    from repro.core.protocol import SourceBatch
    from repro.core.runner import get_scheme
    from repro.runtime import driver, feeder
    from repro.serve import coordinator, framing, merge
    from repro.sim import kernel
    from repro.wire import codec

    t = tracer
    t.patch(workload.WorkloadCache, "get",
            t.sync("core.workload.get", workload.WorkloadCache.get))
    t.patch(driver, "build_run",
            t.sync("runtime.driver.build_run", driver.build_run))
    # The driver imported inject_stream by name: patch its binding.
    t.patch(driver, "inject_stream",
            t.sync("runtime.driver.inject_stream", driver.inject_stream))
    # The saturated feeder's per-batch callback (the feed layer's only
    # per-batch entry point).
    t.patch(feeder.SourceFeeder, "_feed",
            t.sync("runtime.feeder.feed", feeder.SourceFeeder._feed))
    t.patch(kernel.Simulator, "run",
            t.sync("sim.kernel.run", kernel.Simulator.run))

    def count_message(_out: Any, args: tuple[Any, ...]) -> None:
        if isinstance(args[2], SourceBatch):
            t.counts["runtime.feeder.source_batches"] += 1

    # Wrap on_message where it is defined, once per defining class, so
    # an inherited handler is not timed twice.
    owners: set[type] = set()
    for name in schemes:
        spec = get_scheme(name)
        for cls in (spec.root_cls, spec.local_cls):
            owner = next(c for c in cls.__mro__
                         if "on_message" in vars(c))
            if owner not in owners:
                owners.add(owner)
                t.patch(owner, "on_message",
                        t.sync("scheme.on_message",
                               vars(owner)["on_message"],
                               after=count_message))

    RAI = agg_index.RangeAggregateIndex
    t.patch(RAI, "lift_range",
            t.sync("core.agg_index.lift_range", RAI.lift_range))
    t.patch(RAI, "extend", t.sync("core.agg_index.extend", RAI.extend))
    MQE = multiquery.MultiQueryEngine
    t.patch(MQE, "append", t.sync("core.multiquery.append", MQE.append))

    def count_frame(out: Any, _args: tuple[Any, ...]) -> None:
        t.counts["wire.codec.messages"] += 1
        t.counts["wire.codec.bytes"] += len(out)

    MC = codec.MessageCodec
    t.patch(MC, "encode_message",
            t.sync("wire.codec.encode", MC.encode_message,
                   after=count_frame))
    t.patch(MC, "decode_message",
            t.sync("wire.codec.decode", MC.decode_message))

    # Serve coordinator side (the workers are separate processes).
    t.patch(merge.EpochMerge, "pop_next",
            t.sync("serve.merge.pop_next", merge.EpochMerge.pop_next))
    t.patch(coordinator.Coordinator, "wait_for_workers",
            t.coro("serve.harness.wait_for_workers",
                   coordinator.Coordinator.wait_for_workers))
    t.patch(framing, "send_frame_async",
            t.coro("serve.framing.send", framing.send_frame_async))
    t.patch(framing, "recv_frame_async",
            t.coro("serve.framing.recv", framing.recv_frame_async))

    # Counting only: both run inside the timed send/recv spans.
    encode_frame, parse = framing.encode_frame, framing._parse

    def counted_encode(*args: Any, **kwargs: Any) -> Any:
        out = encode_frame(*args, **kwargs)
        t.counts["serve.framing.frames_sent"] += 1
        t.counts["serve.framing.bytes"] += len(out)
        return out

    def counted_parse(buf: bytes) -> Any:
        t.counts["serve.framing.frames_recv"] += 1
        # _parse gets the frame after its u32 length prefix.
        t.counts["serve.framing.bytes"] += len(buf) + 4
        return parse(buf)
    t.patch(framing, "encode_frame", counted_encode)
    t.patch(framing, "_parse", counted_parse)

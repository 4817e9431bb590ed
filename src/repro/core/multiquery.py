"""Shared multi-query engine: thousands of standing count-window
queries served from one event store per stream and one partial tree per
(stream, aggregate).

Run independently, every standing query pays its own buffer, event
lifts and :class:`~repro.core.agg_index.RangeAggregateIndex`.  Here the
per-batch cost scales with the number of windows *due* instead:

* **Event store** (per stream): one contiguous column store shared by
  every aggregate group; every range read is a zero-copy view.
* **Group** (per stream and aggregate): a partial tree over the store
  plus an edge-slice memo, so each sub-chunk window edge is lifted once.
  Identical specs admitted at the same position (same
  :attr:`~repro.core.query.Query.query_key`) share one *evaluation*.
* **Calendar** (per group): a heap keyed by next window end pops only
  the evaluations that are due.
* **Ledger** (per evaluation): each ``(index, result)`` pair is hashed
  once for every subscribed :class:`QueryAccount`.

Bit-identity contract: every window value is
``fn.lower(index.lift_range(start, end))``, whose decomposition and
combine association are pure functions of ``(start, end, chunk_size)``
— never of what else is registered or memoized.  An engine serving N
queries therefore yields the same per-query fingerprints as N engines
serving one query each; sharing changes only memory and wall-clock.
Accounts also book the combine/edge-lift cost their evaluation paid (a
deduped duplicate pays nothing); an enabled tracer sees the same
quantities as ``mq_*`` counters scoped per query id.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.core.agg_index import (DEFAULT_CHUNK_SIZE, RangeAggregateIndex,
                                  decomposition_width,
                                  index_enabled_default)
from repro.core.query import Query, parse_query_spec
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.streams.batch import ID_DTYPE, TS_DTYPE, VALUE_DTYPE, EventBatch
from repro.windows.base import SlidingCountWindow, TumblingCountWindow

#: Smallest event-store capacity (events per column).
_STORE_MIN = 4096

#: Lazily deleted calendar entries tolerated beyond the live ones
#: before a group rebuilds its heaps.
_HEAP_SLACK = 32


def _count_window(query: Query) -> tuple[int, int, AggregateFunction]:
    """(length, step, aggregate) of a count-window query; rejects other
    measures."""
    win, agg = query.window, query.aggregate
    if not isinstance(agg, AggregateFunction):  # pragma: no cover
        raise ConfigurationError(f"unresolved aggregate {agg!r}")
    if isinstance(win, SlidingCountWindow):
        return win.length, win.step, agg
    if isinstance(win, TumblingCountWindow):
        return win.length, win.length, agg
    raise ConfigurationError(
        "the multi-query engine serves count windows (tumbling or "
        f"sliding); got {type(win).__name__}")


class _QueryEval:
    """One shared evaluation — a unique (spec, admission position) in a
    group — and the result ledger of every subscribed account."""

    __slots__ = ("key", "step", "start", "end", "next_window", "seq",
                 "live", "subscribers", "digest", "last_result", "results")

    def __init__(self, key: tuple[str, int], length: int, step: int,
                 start: int, seq: int, keep_results: bool) -> None:
        self.key = key
        self.step = step
        #: Next window: span ``[start, end)``, index ``next_window``
        #: (also the ledger's window count).
        self.start = start
        self.end = start + length
        self.next_window = 0
        self.seq = seq
        self.live = True
        self.subscribers: list[QueryAccount] = []
        self.digest: Any = hashlib.sha256()
        self.last_result: float | None = None
        self.results: list[tuple[int, float]] | None = (
            [] if keep_results else None)


@dataclass
class QueryAccount:
    """Per-query results fingerprint and cost ledger.

    While the query is active its result fields mirror the shared
    ledger of its evaluation (synced whenever the engine hands accounts
    out); removal freezes a copy.  ``combines``/``edge_events`` are the
    evaluation cost this query paid: a deduped duplicate pays nothing
    and names its owner in ``deduped_into``.
    """

    qid: str
    stream: str
    label: str
    query_key: str
    from_position: int
    removed_at: int | None = None
    deduped_into: str | None = None
    windows: int = 0
    combines: int = 0
    edge_events: int = 0
    last_result: float | None = None
    #: Retained ``(window_index, result)`` pairs when the engine was
    #: built with ``keep_results=True`` (tests/benchmarks only).
    results: list[tuple[int, float]] | None = None
    _digest: Any = field(default_factory=hashlib.sha256, repr=False)
    _ev: _QueryEval | None = field(default=None, repr=False,
                                   compare=False)

    def sync(self) -> None:
        """Copy the shared ledger's totals (no-op once removed)."""
        ev = self._ev
        if ev is not None:
            self.windows = ev.next_window
            self.last_result = ev.last_result
            self.results = ev.results
            self._digest = ev.digest

    def detach(self) -> None:
        """Freeze a private snapshot of the ledger."""
        self.sync()
        self._digest = self._digest.copy()
        if self.results is not None:
            self.results = list(self.results)
        self._ev = None

    @property
    def fingerprint(self) -> str:
        """Hash over every emitted ``(window_index, result.hex())``."""
        return str(self._digest.hexdigest())

    def to_json(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("results", "_digest", "_ev")}
        out["fingerprint"] = self.fingerprint
        return out


class _EventStore:
    """One stream's retained events in three contiguous columns;
    ``get_range`` is a zero-copy view.  An overflowing append moves the
    live events to fresh arrays of twice their size (earlier views stay
    valid; the copy is amortized O(1) per event)."""

    def __init__(self, base: int) -> None:
        self.base = self.end = base
        self._off = 0  # array index of ``base``
        self._cols = [np.empty(_STORE_MIN, dtype)
                      for dtype in (ID_DTYPE, VALUE_DTYPE, TS_DTYPE)]

    def append(self, batch: EventBatch) -> None:
        n = len(batch)
        live = self.end - self.base
        lo = self._off + live
        if lo + n > len(self._cols[0]):
            cap = max(_STORE_MIN, 2 * (live + n))
            fresh = [np.empty(cap, col.dtype) for col in self._cols]
            for new, old in zip(fresh, self._cols, strict=True):
                new[:live] = old[self._off:lo]
            self._cols, self._off, lo = fresh, 0, live
        for col, src in zip(self._cols, (batch.ids, batch.values, batch.ts),
                            strict=True):
            col[lo:lo + n] = src
        self.end += n

    def release_before(self, position: int) -> None:
        if position > self.base:
            self._off += position - self.base
            self.base = position

    def get_range(self, start: int, end: int) -> EventBatch:
        i = start - self.base + self._off
        j = i + end - start
        ids, values, ts = self._cols
        return EventBatch._view(ids[i:j], values[i:j], ts[i:j])


class _EdgeMemo(dict[tuple[int, int], Any]):
    """Edge-slice memo (``(start, end) -> partial``) that evicts in
    start order from a heap of its keys."""

    def __init__(self) -> None:
        super().__init__()
        self._order: list[tuple[int, int]] = []

    def __setitem__(self, key: tuple[int, int], value: Any) -> None:
        heappush(self._order, key)
        super().__setitem__(key, value)

    def evict_before(self, position: int) -> None:
        order = self._order
        while order and order[0][0] < position:
            self.pop(heappop(order), None)


class _StreamGroup:
    """One (stream, aggregate): a partial tree over the stream's store,
    an edge-slice memo, and the calendar of its evaluations."""

    def __init__(self, stream: str, fn: AggregateFunction,
                 store: _EventStore, *, chunk_size: int) -> None:
        self.stream = stream
        self.fn = fn
        self.store = store
        self.edge_slices = _EdgeMemo()
        self.index: RangeAggregateIndex | None = None
        if fn.is_decomposable:
            self.index = RangeAggregateIndex(
                fn, store.get_range, base=store.end,
                chunk_size=chunk_size, caching=index_enabled_default(),
                edge_cache=self.edge_slices)
        #: Live evaluations keyed (query_key, from_position).
        self.evals: dict[tuple[str, int], _QueryEval] = {}
        #: Calendar: ``(next window end, seq, eval)``.
        self.due: list[tuple[int, int, _QueryEval]] = []
        #: ``(lower bound of next window start, seq, eval)``; the top is
        #: refreshed on demand, so the exact minimum is cheap to find.
        self.starts: list[tuple[int, int, _QueryEval]] = []
        self.released = store.end

    def add(self, ev: _QueryEval) -> None:
        self.evals[ev.key] = ev
        heappush(self.due, (ev.end, ev.seq, ev))
        heappush(self.starts, (ev.start, ev.seq, ev))

    def drop(self, ev: _QueryEval) -> int:
        """Retire ``ev`` and return the live count.  Heap entries are
        deleted lazily; both heaps are rebuilt once dead ones dominate."""
        ev.live = False
        del self.evals[ev.key]
        bound = 2 * len(self.evals) + _HEAP_SLACK
        if len(self.due) > bound or len(self.starts) > bound:
            live = self.evals.values()
            self.due = [(e.end, e.seq, e) for e in live]
            self.starts = [(e.start, e.seq, e) for e in live]
            heapify(self.due)
            heapify(self.starts)
        return len(self.evals)

    def horizon(self) -> int:
        """Smallest next-window start over the live evaluations."""
        starts = self.starts
        while True:
            key, seq, ev = starts[0]
            if not ev.live:
                heappop(starts)
            elif key == ev.start:
                return key
            else:
                heapreplace(starts, (ev.start, seq, ev))

    def stats(self) -> dict[str, Any]:
        index = self.index
        return {
            "stream": self.stream, "aggregate": self.fn.name,
            "queries": sum(len(e.subscribers) for e in self.evals.values()),
            "evals": len(self.evals),
            "retained": self.store.end - self.store.base,
            "edge_slices": len(self.edge_slices),
            "calendar": max(len(self.due), len(self.starts)),
            "nodes_cached": 0 if index is None else index.nodes_cached,
        }


class MultiQueryEngine:
    """Standing-query evaluator fed from every local node's ingest path.

    Admission and removal are positional: a query admitted at stream
    position ``p`` sees exactly the windows ``[p + k*step, p + k*step +
    length)``, so simulator, lockstep and epoch runtimes agree
    bit-for-bit.
    """

    def __init__(self, *, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 tracer: Any = None,
                 keep_results: bool = False) -> None:
        self.chunk_size = chunk_size
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.keep_results = keep_results
        #: Every account (removed ones too), in admission order.
        self._accounts: dict[str, QueryAccount] = {}
        self._auto_ids = 0
        #: Evaluation sequence: the calendar's tie-break.
        self._seq = itertools.count()
        self._stream_end: dict[str, int] = {}
        self._stores: dict[str, _EventStore] = {}
        #: stream -> aggregate name -> group.
        self._groups: dict[str, dict[str, _StreamGroup]] = {}
        #: Active queries: qid -> (group, evaluation).
        self._routes: dict[str, tuple[_StreamGroup, _QueryEval]] = {}

    # -- admission / removal -----------------------------------------------

    def admit(self, stream: str, query: Query | str, *,
              at: int | None = None, qid: str | None = None) -> str:
        """Register a standing query on ``stream``; returns its id.

        ``at`` is the absolute position of the first window's start
        (default: the current position); admission is forward-only, so
        every runtime sees identical data.  Serve ops pass an explicit
        ``qid`` so every worker agrees on it.
        """
        if isinstance(query, str):
            query = parse_query_spec(query)
        length, step, fn = _count_window(query)
        pos = self._stream_end.get(stream, 0)
        start = pos if at is None else at
        if start < pos:
            raise ConfigurationError(
                f"admission at {start} precedes stream position {pos}: "
                "admission is forward-only")
        if qid is None:
            qid = f"q{self._auto_ids}"
            self._auto_ids += 1
        if qid in self._accounts:
            raise ConfigurationError(f"duplicate query id {qid!r}")
        account = self._accounts[qid] = QueryAccount(
            qid=qid, stream=stream, label=query.label,
            query_key=query.query_key, from_position=start)
        store = self._stores.get(stream)
        if store is None:
            store = self._stores[stream] = _EventStore(pos)
        groups = self._groups.setdefault(stream, {})
        group = groups.get(fn.name)
        if group is None:
            group = groups[fn.name] = _StreamGroup(
                stream, fn, store, chunk_size=self.chunk_size)
        ekey = (query.query_key, start)
        ev = group.evals.get(ekey)
        if ev is None:
            ev = _QueryEval(ekey, length, step, start, next(self._seq),
                            self.keep_results)
            group.add(ev)
        else:
            account.deduped_into = ev.subscribers[0].qid
        ev.subscribers.append(account)
        account._ev = ev
        account.sync()
        self._routes[qid] = (group, ev)
        if self.tracer.enabled:
            self.tracer.inc("mq_admitted", stream)
        return qid

    def remove(self, qid: str) -> QueryAccount:
        """Stop a standing query; its account (and fingerprint over the
        windows it did see) is retained.  Surviving queries' window
        values are pure functions of their own spans, so removal never
        perturbs them — it only relaxes the eviction horizon."""
        account = self.account(qid)
        if account.removed_at is not None:
            raise ConfigurationError(f"query {qid!r} already removed")
        stream = account.stream
        account.removed_at = self._stream_end.get(stream, 0)
        group, ev = self._routes.pop(qid)
        account.detach()
        ev.subscribers = [a for a in ev.subscribers if a is not account]
        if not ev.subscribers and not group.drop(ev):
            groups = self._groups[stream]
            del groups[group.fn.name]
            if not groups:
                del self._groups[stream], self._stores[stream]
        if self.tracer.enabled:
            self.tracer.inc("mq_removed", stream)
        return account

    # -- ingestion ----------------------------------------------------------

    def append(self, stream: str, batch: EventBatch) -> None:
        """Feed events arriving on ``stream`` in order; emits every
        window the batch completes into its evaluation's ledger."""
        n = len(batch)
        if n == 0:
            return
        self._stream_end[stream] = self._stream_end.get(stream, 0) + n
        store = self._stores.get(stream)
        if store is None:
            return
        store.append(batch)
        end = store.end
        horizon = end
        for group in self._groups[stream].values():
            horizon = min(horizon, self._feed_group(group, end))
        store.release_before(horizon)

    def _feed_group(self, group: _StreamGroup, end: int) -> int:
        """Evaluate the group's due windows; returns its horizon."""
        index = group.index
        if index is not None:
            index.extend(end)
        due = group.due
        while due and due[0][0] <= end:
            ev = due[0][2]
            if ev.live:
                self._evaluate(group, ev, end)
                heapreplace(due, (ev.end, ev.seq, ev))
            else:
                heappop(due)
        horizon = min(group.horizon(), end)
        if horizon > group.released:
            group.released = horizon
            if index is not None:
                index.release_before(horizon)
            group.edge_slices.evict_before(horizon)
        return horizon

    def _evaluate(self, group: _StreamGroup, ev: _QueryEval,
                  end: int) -> None:
        """Emit every window of ``ev`` ending by ``end`` into its ledger,
        once for all subscribers; the owner pays the lift cost."""
        fn, index, size = group.fn, group.index, self.chunk_size
        first = ev.next_window
        combines = edge = 0
        while ev.end <= end:
            s, e = ev.start, ev.end
            if index is None:
                # Holistic windows re-lift their whole span.
                value = float(fn.lower(fn.lift(group.store.get_range(s, e))))
                edge += e - s
            else:
                value = float(fn.lower(index.lift_range(s, e)))
                combines += max(0, decomposition_width(s, e, size) - 1)
                head_end = min(e, -(-s // size) * size)
                tail_start = max(head_end, (e // size) * size)
                edge += (head_end - s) + (e - tail_start)
            i = ev.next_window
            ev.digest.update(f"{i}:{value.hex()};".encode("ascii"))
            ev.last_result = value
            if ev.results is not None:
                ev.results.append((i, value))
            ev.next_window = i + 1
            ev.start = s + ev.step
            ev.end = e + ev.step
        owner = ev.subscribers[0]
        owner.combines += combines
        owner.edge_events += edge
        tracer = self.tracer
        if tracer.enabled:
            tracer.inc("mq_combines", owner.qid, combines)
            for account in ev.subscribers:
                tracer.inc("mq_windows", account.qid,
                           ev.next_window - first)

    # -- introspection ------------------------------------------------------

    @property
    def n_active(self) -> int:
        """Standing queries currently admitted and not removed."""
        return len(self._routes)

    def account(self, qid: str) -> QueryAccount:
        account = self._accounts.get(qid)
        if account is None:
            raise ConfigurationError(f"unknown query id {qid!r}")
        account.sync()
        return account

    def accounts(self) -> dict[str, QueryAccount]:
        """All accounts (including removed), admission order."""
        for account in self._accounts.values():
            account.sync()
        return dict(self._accounts)

    def accounts_json(self) -> dict[str, dict[str, Any]]:
        """JSON-safe per-query accounts (``RunResult.queries``)."""
        return {qid: a.to_json() for qid, a in self.accounts().items()}

    def fingerprints(self) -> dict[str, str]:
        """Per-query result fingerprints (A/B gate convenience)."""
        return {qid: a.fingerprint for qid, a in self.accounts().items()}

    def stats(self) -> dict[str, Any]:
        """Engine-level storage statistics (benchmarks, tests)."""
        return {
            "streams": {s: {"retained": st.end - st.base,
                            "capacity": len(st._cols[0])}
                        for s, st in self._stores.items()},
            "groups": [g.stats() for groups in self._groups.values()
                       for g in groups.values()],
            "routes": len(self._routes),
        }

    def __repr__(self) -> str:
        return (f"MultiQueryEngine(queries={len(self._accounts)}, "
                f"groups={sum(map(len, self._groups.values()))})")

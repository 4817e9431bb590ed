"""Shared multi-query engine: identity, dedup, admission/removal, and
the sharing A/B bit-identity gate.

The engine (``repro.core.multiquery``) must be invisible except for
memory and host wall-clock: for every query population, every
admission/removal point, and every scheme, each query's full result
stream is bit-identical whether one engine serves every query
(sharing on) or every query runs in its own single-query engine
(sharing off).  Hypothesis drives populations and admission points;
the scheme-level tests compare full determinism fingerprints.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.determinism import Fingerprint, check_determinism
from repro.analysis.fsm import assert_fsm_conformance
from repro.core.multiquery import MultiQueryEngine
from repro.core.query import Query, parse_query_spec
from repro.core.runner import RunConfig, run_scheme
from repro.errors import ConfigurationError
from repro.obs.tracer import RunTracer
from repro.streams.batch import EventBatch
from repro.windows.base import SlidingCountWindow, TumblingCountWindow

#: Everything the runner registers, including the ablation variant.
FINGERPRINT_SCHEMES = ("central", "scotty", "disco", "approx",
                       "deco_mon", "deco_sync", "deco_async",
                       "deco_monlocal")

TINY = dict(n_nodes=2, window_size=800, n_windows=3,
            rate_per_node=20_000.0, rate_change=0.05)

QUERIES = ("sum:500", "avg:300:100", "sum:500", "max:320:80")

STREAM = "local-0"


def value_batch(rng, n, start=0):
    return EventBatch(np.arange(start, start + n),
                      rng.uniform(-1e3, 1e3, n),
                      np.arange(start, start + n))


class SingleQueryEngines:
    """The unshared baseline: every query in its own
    :class:`MultiQueryEngine`, behind the same admit / remove / append
    surface.  A late admission gets a fresh engine that is first
    replayed the stream so far, so it sees the same positions."""

    def __init__(self, **engine_kwargs):
        self._kwargs = engine_kwargs
        self._engines = {}
        self._history = {}

    def admit(self, stream, spec):
        qid = f"q{len(self._engines)}"
        engine = MultiQueryEngine(**self._kwargs)
        for batch in self._history.get(stream, ()):
            engine.append(stream, batch)
        engine.admit(stream, spec, qid=qid)
        self._engines[qid] = engine
        return qid

    def remove(self, qid):
        return self._engines[qid].remove(qid)

    def append(self, stream, batch):
        self._history.setdefault(stream, []).append(batch)
        for engine in self._engines.values():
            engine.append(stream, batch)

    def accounts(self):
        return {qid: e.account(qid) for qid, e in self._engines.items()}

    def account(self, qid):
        return self._engines[qid].account(qid)

    def fingerprints(self):
        return {qid: a.fingerprint for qid, a in self.accounts().items()}

    @property
    def n_active(self):
        return sum(e.n_active for e in self._engines.values())


def feed_engine(specs, chunks, *, sharing, admissions=None,
                removals=None):
    """Drive one engine lifetime; returns the engine.

    ``sharing=False`` drives :class:`SingleQueryEngines` instead.
    ``chunks`` is a list of batch sizes; ``admissions`` maps a chunk
    index to extra specs admitted right before that chunk is fed;
    ``removals`` maps a chunk index to qids removed there.
    """
    rng = np.random.default_rng(7)
    engine = (MultiQueryEngine(chunk_size=64) if sharing
              else SingleQueryEngines(chunk_size=64))
    for spec in specs:
        engine.admit(STREAM, spec)
    pos = 0
    for i, n in enumerate(chunks):
        for spec in (admissions or {}).get(i, ()):
            engine.admit(STREAM, spec)
        for qid in (removals or {}).get(i, ()):
            engine.remove(qid)
        engine.append(STREAM, value_batch(rng, n, start=pos))
        pos += n
    return engine


class TestQueryIdentity:
    def test_content_equality_survives_aggregate_resolution(self):
        # __post_init__ resolves the aggregate name to an instance;
        # equality and hashing are content-derived, so a spec-built
        # query equals a directly-built one.
        a = Query(window=TumblingCountWindow(1000), aggregate="sum")
        b = parse_query_spec("sum:1000")
        assert a == b
        assert hash(a) == hash(b)
        assert a.query_key == b.query_key

    def test_distinct_specs_distinct_keys(self):
        keys = {parse_query_spec(s).query_key
                for s in ("sum:1000", "sum:1001", "avg:1000",
                          "sum:1000:250")}
        assert len(keys) == 4

    def test_non_query_comparison(self):
        assert parse_query_spec("sum:8") != "sum:8"

    def test_labels(self):
        assert parse_query_spec("sum:1000").label == "sum:1000"
        assert parse_query_spec("avg:1000:250").label == "avg:1000:250"

    @pytest.mark.parametrize("bad", ["sum", "sum:0", "sum:abc",
                                     "sum:100:0", "sum:100:200",
                                     ":100", "sum:100:50:2"])
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigurationError):
            parse_query_spec(bad)

    def test_parse_shapes(self):
        t = parse_query_spec("sum:100")
        assert isinstance(t.window, TumblingCountWindow)
        s = parse_query_spec("sum:100:25")
        assert isinstance(s.window, SlidingCountWindow)
        assert (s.window.length, s.window.step) == (100, 25)


class TestEngineBasics:
    def test_dedup_shares_one_evaluation(self):
        engine = feed_engine(["sum:96", "sum:96", "avg:96:32"],
                             [256, 256], sharing=True)
        accounts = engine.accounts()
        assert accounts["q1"].deduped_into == "q0"
        assert accounts["q0"].deduped_into is None
        # The duplicate receives every window but pays nothing.
        assert accounts["q1"].windows == accounts["q0"].windows > 0
        assert accounts["q1"].fingerprint == accounts["q0"].fingerprint
        assert accounts["q1"].combines == 0
        assert accounts["q1"].edge_events == 0
        assert accounts["q0"].combines > 0

    def test_unshared_duplicate_pays_full_freight(self):
        engine = feed_engine(["sum:96", "sum:96"], [256, 256],
                             sharing=False)
        accounts = engine.accounts()
        assert accounts["q1"].deduped_into is None
        assert accounts["q1"].combines == accounts["q0"].combines > 0

    def test_forward_only_admission(self):
        engine = feed_engine(["sum:64"], [128], sharing=True)
        with pytest.raises(ConfigurationError, match="forward-only"):
            engine.admit(STREAM, "sum:32", at=4)

    def test_registry_errors(self):
        engine = MultiQueryEngine()
        engine.admit(STREAM, "sum:64", qid="qx")
        with pytest.raises(ConfigurationError):
            engine.admit(STREAM, "avg:64", qid="qx")
        with pytest.raises(ConfigurationError):
            engine.remove("nope")
        engine.remove("qx")
        with pytest.raises(ConfigurationError):
            engine.remove("qx")

    def test_eviction_bounds_retention(self):
        engine = feed_engine(["sum:64:16"], [64] * 32, sharing=True)
        stats = engine.stats()["groups"][0]
        # The buffer never retains much past one window length.
        assert stats["retained"] <= 64 + 64
        assert stats["edge_slices"] <= 16

    def test_stats_and_repr(self):
        engine = feed_engine(["sum:64", "avg:48:16"], [128],
                             sharing=True)
        assert "MultiQueryEngine" in repr(engine)
        assert engine.n_active == 2
        stats = engine.stats()
        assert {g["aggregate"] for g in stats["groups"]} == \
            {"sum", "avg"}
        # Both groups of the stream read one shared event store.
        assert list(stats["streams"]) == [STREAM]
        assert {g["retained"] for g in stats["groups"]} == \
            {stats["streams"][STREAM]["retained"]}
        assert [g["calendar"] for g in stats["groups"]] == [1, 1]
        assert stats["routes"] == 2


class TestTracerCounters:
    """``mq_windows``/``mq_combines`` counters per qid equal the
    accounts' own totals (the ledger is hashed once per evaluation,
    but the tracer still sees every subscriber's windows)."""

    def test_engine_counters_match_accounts(self):
        tracer = RunTracer()
        engine = MultiQueryEngine(chunk_size=64, tracer=tracer)
        rng = np.random.default_rng(3)
        for spec in ("sum:96", "sum:96", "avg:80:16", "median:72:24"):
            engine.admit(STREAM, spec)
        pos = 0
        for i, n in enumerate([100, 37, 256, 64, 129, 200]):
            if i == 2:
                engine.admit(STREAM, "max:64:16")
                engine.remove("q0")  # the dedup owner: q1 pays next
            engine.append(STREAM, value_batch(rng, n, start=pos))
            pos += n
        accounts = engine.accounts()
        assert all(a.windows > 0 for a in accounts.values())
        assert accounts["q1"].combines > 0
        assert tracer.counter("mq_admitted", STREAM) == 5
        assert tracer.counter("mq_removed", STREAM) == 1
        for qid, account in accounts.items():
            assert tracer.counter("mq_windows", qid) == account.windows
            assert tracer.counter("mq_combines", qid) == account.combines

    def test_run_counters_match_accounts(self):
        tracer = RunTracer()
        result, _ = run_scheme(RunConfig(scheme="deco_async",
                                         queries=QUERIES, trace=True,
                                         **TINY), tracer=tracer)
        assert sum(a["windows"] for a in result.queries.values()) > 0
        for qid, acct in result.queries.items():
            assert tracer.counter("mq_windows", qid) == acct["windows"]
            assert tracer.counter("mq_combines", qid) == acct["combines"]


class TestBoundedMemory:
    """Soak: many admit/remove cycles over a long stream (CI-sized,
    ~60k events).  Storage must plateau, not grow with stream length
    or with the number of queries ever admitted."""

    #: Regular queries cycle through every aggregate group; ``BRIEF``
    #: queries are removed one cycle after admission, long before their
    #: first window is due, so their calendar entries die in the heap.
    POOL = tuple(f"{agg}:{n}" if d == 1 else f"{agg}:{n}:{n // d}"
                 for n in (128, 512, 1500) for d in (1, 2)
                 for agg in ("sum", "avg", "min", "max", "median"))
    BRIEF = ("sum:65536", "avg:50000:25000", "max:40000")
    CYCLES, BURST, LIVE, BATCH, BATCHES = 120, 6, 24, 128, 4
    SIZES = ("retained", "capacity", "edge_slices", "calendar",
             "nodes_cached", "routes")

    @staticmethod
    def numpy_bytes():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        return sum(trace.size for trace in snapshot.traces)

    def sizes(self, engine):
        stats = engine.stats()
        groups = stats["groups"]
        return {
            **stats["streams"][STREAM],
            "edge_slices": sum(g["edge_slices"] for g in groups),
            "calendar": max(g["calendar"] for g in groups),
            "dead": max(g["calendar"] - g["evals"] for g in groups),
            "nodes_cached": sum(g["nodes_cached"] for g in groups),
            "routes": stats["routes"],
        }

    def test_soak_storage_plateaus(self):
        n = self.CYCLES * self.BATCHES * self.BATCH
        values = np.random.default_rng(1).uniform(-1e3, 1e3, n)
        ids = np.arange(n)
        engine = MultiQueryEngine(chunk_size=64)
        live, brief, pos, admitted = [], [], 0, 0
        samples, memory = [], []
        tracemalloc.start()
        try:
            for cycle in range(self.CYCLES):
                for j in range(self.BURST):
                    spec = self.POOL[admitted % len(self.POOL)]
                    live.append(engine.admit(STREAM, spec,
                                             at=pos + 17 * j))
                    admitted += 1
                for _ in range(self.BATCHES):
                    cut = slice(pos, pos + self.BATCH)
                    engine.append(STREAM, EventBatch(
                        ids[cut], values[cut], ids[cut]))
                    pos += self.BATCH
                while len(live) > self.LIVE:
                    engine.remove(live.pop(0))
                for qid in brief:
                    engine.remove(qid)
                brief = [engine.admit(STREAM, spec, at=pos + 5)
                         for spec in self.BRIEF]
                samples.append(self.sizes(engine))
                if cycle % 10 == 0:
                    memory.append((len(engine.accounts()),
                                   self.numpy_bytes(),
                                   tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()

        half = self.CYCLES // 2
        for key in self.SIZES:
            early = max(s[key] for s in samples[10:half])
            late = max(s[key] for s in samples[half:])
            assert late <= early, f"{key} grows: {early} -> {late}"
        # Lazily deleted calendar entries did pile up, and compaction
        # bounded them.
        assert max(s["dead"] for s in samples) > 2 * len(self.BRIEF)
        assert max(s["calendar"] for s in samples) < 64
        assert samples[-1]["routes"] == self.LIVE + len(self.BRIEF)
        # Array memory (the event store) plateaus; the Python heap
        # grows only by the retained accounts of removed queries.
        mid, last = memory[len(memory) // 2], memory[-1]
        assert last[1] <= max(m[1] for m in memory[1:len(memory) // 2])
        per_account = ((last[2] - last[1]) - (mid[2] - mid[1])) / \
            (last[0] - mid[0])
        assert per_account < 1024, per_account


#: Query populations mixing tumbling/sliding shapes and decomposable/
#: holistic aggregates.
spec_lists = st.lists(
    st.sampled_from(["sum:96", "sum:128:32", "avg:80:16", "max:64",
                     "variance:112:48", "median:72:24", "sum:96"]),
    min_size=1, max_size=5)

chunk_lists = st.lists(st.integers(min_value=1, max_value=160),
                       min_size=1, max_size=8)


class TestSharingBitIdentity:
    @given(specs=spec_lists, chunks=chunk_lists)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fingerprints_identical_across_modes(self, specs, chunks):
        shared = feed_engine(specs, chunks, sharing=True)
        unshared = feed_engine(specs, chunks, sharing=False)
        assert shared.fingerprints() == unshared.fingerprints()

    @given(specs=spec_lists, chunks=chunk_lists,
           data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_admission_points_fingerprint_identical(self, specs,
                                                    chunks, data):
        """Admitting queries at arbitrary points mid-feed yields the
        same per-query results in both modes (satellite: admission
        determinism over Hypothesis-chosen admission points)."""
        at = data.draw(st.integers(min_value=0,
                                   max_value=len(chunks) - 1))
        late = data.draw(st.sampled_from(
            ["sum:64", "avg:48:16", "median:56:28"]))
        admissions = {at: [late]}
        shared = feed_engine(specs, chunks, sharing=True,
                             admissions=admissions)
        unshared = feed_engine(specs, chunks, sharing=False,
                               admissions=admissions)
        assert shared.fingerprints() == unshared.fingerprints()
        # The late query saw only forward data.
        late_qid = f"q{len(specs)}"
        assert shared.account(late_qid).from_position == \
            sum(chunks[:at])

    @pytest.mark.parametrize("sharing", [True, False])
    def test_removal_leaves_survivors_bit_identical(self, sharing):
        """Removing a query mid-run leaves every survivor's stream
        bit-identical to a run that never saw the removed query."""
        chunks = [96] * 6
        with_removed = feed_engine(
            ["sum:128", "avg:96:32"], chunks, sharing=sharing,
            admissions={1: ["max:64:16"]}, removals={4: ["q2"]})
        never_saw = feed_engine(["sum:128", "avg:96:32"], chunks,
                                sharing=sharing)
        survivors = {qid: fp
                     for qid, fp in with_removed.fingerprints().items()
                     if qid != "q2"}
        assert survivors == never_saw.fingerprints()
        removed = with_removed.account("q2")
        assert removed.removed_at == 96 * 4
        assert with_removed.n_active == 2

    @given(specs=spec_lists, chunks=chunk_lists, data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_removal_points_fingerprint_identical(self, specs, chunks,
                                                  data):
        """Hypothesis over removal points: survivors match a run that
        never admitted the victim, in both modes."""
        at = data.draw(st.integers(min_value=0,
                                   max_value=len(chunks) - 1))
        victim = data.draw(st.integers(min_value=0,
                                       max_value=len(specs) - 1))
        removals = {at: [f"q{victim}"]}
        for sharing in (True, False):
            removed_run = feed_engine(specs, chunks, sharing=sharing,
                                      removals=removals)
            baseline = feed_engine(
                [s for i, s in enumerate(specs) if i != victim],
                chunks, sharing=sharing)
            survivors = [
                fp for qid, fp in removed_run.fingerprints().items()
                if qid != f"q{victim}"]
            assert survivors == list(baseline.fingerprints().values())


class TestSchemeFingerprints:
    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_fingerprint_invariant_under_sharing_toggle(self, scheme):
        """The acceptance gate: per-query result streams AND scheme
        results are bit-identical whether one engine serves every
        query (sharing on) or each query runs alone (sharing off: one
        run per spec, so its engine serves that query only)."""
        result, _ = run_scheme(
            RunConfig(scheme=scheme, queries=QUERIES, **TINY))
        on = Fingerprint.of(result)
        scheme_fp, queries = None, []
        for j, spec in enumerate(QUERIES):
            alone, _ = run_scheme(
                RunConfig(scheme=scheme, queries=(spec,), **TINY))
            fp = Fingerprint.of(alone)
            assert scheme_fp in (None, replace(fp, queries=()))
            scheme_fp = replace(fp, queries=())
            for i in range(TINY["n_nodes"]):
                queries.append((f"q{i * len(QUERIES) + j}",
                                alone.queries[f"q{i}"]["fingerprint"]))
        off = replace(scheme_fp, queries=tuple(sorted(queries)))
        assert on.queries, "no standing-query accounts in fingerprint"
        assert on == off, "\n".join(on.diff(off))

    def test_fingerprint_unchanged_by_queries(self):
        """Standing queries are pure observers: the scheme's own
        windows, bytes, and flows are untouched by admitting them."""
        bare, _ = run_scheme(RunConfig(scheme="deco_sync", **TINY))
        with_q, _ = run_scheme(
            RunConfig(scheme="deco_sync", queries=QUERIES, **TINY))
        assert not bare.queries
        assert set(with_q.queries) == {"q0", "q1", "q2", "q3",
                                       "q4", "q5", "q6", "q7"}
        stripped = Fingerprint.of(with_q)
        assert Fingerprint.of(bare) == type(stripped)(
            **{**stripped.__dict__, "queries": ()})

    def test_config_queries_admission_order(self):
        """Config queries admit stream-major: every local stream gets
        every spec, local-0 first, ids q0, q1, ..."""
        result, _ = run_scheme(
            RunConfig(scheme="central", queries=("sum:500", "avg:300:100"),
                      **TINY))
        accts = result.queries
        assert [a["stream"] for a in accts.values()] == \
            ["local-0", "local-0", "local-1", "local-1"]
        assert list(accts) == ["q0", "q1", "q2", "q3"]
        # The duplicate spec on the second stream is NOT deduped across
        # streams: different stream, different data.
        assert accts["q0"]["fingerprint"] != accts["q2"]["fingerprint"]

    def test_determinism_harness_with_queries(self):
        """Salt-permutation determinism holds with >1 standing query
        (the fingerprint now covers the per-query digests)."""
        fp = check_determinism(
            RunConfig(scheme="deco_async", queries=QUERIES, **TINY))
        assert fp.queries

    def test_fsm_conformance_with_queries(self):
        """The protocol FSM is untouched by standing queries."""
        tracer = RunTracer()
        run_scheme(RunConfig(scheme="deco_sync", queries=QUERIES,
                             trace=True, **TINY), tracer=tracer)
        assert_fsm_conformance("deco_sync", tracer)


class TestServeQueryOps:
    def test_worker_dispatch_query_ops(self):
        """QUERY frames admit/remove against the worker's engine with
        coordinator-chosen ids; FINAL ships only owned streams."""
        from repro.serve import framing
        from repro.serve.worker import WorkerRuntime
        config = RunConfig(scheme="central", **TINY)
        rt = WorkerRuntime("local-0", config)
        assert rt.ctx.engine is None
        ops, blob = rt.dispatch(framing.QUERY, {
            "now": 0.0, "qop": "admit", "stream": "local-0",
            "spec": "sum:256", "qid": "rq0", "at": None}, b"")
        assert ops == [] and blob == b""
        assert rt.ctx.engine is not None
        assert rt.ctx.engine.account("rq0").from_position == 0
        rt.dispatch(framing.QUERY, {
            "now": 0.0, "qop": "admit", "stream": "local-1",
            "spec": "sum:256", "qid": "rq1", "at": None}, b"")
        payload = rt.final_payload()
        assert set(payload["queries"]) == {"rq0"}
        rt.dispatch(framing.QUERY, {"now": 0.0, "qop": "remove",
                                    "qid": "rq0"}, b"")
        assert rt.ctx.engine.account("rq0").removed_at is not None

    def test_worker_rejects_unknown_query_op(self):
        from repro.errors import ServeError
        from repro.serve import framing
        from repro.serve.worker import WorkerRuntime
        rt = WorkerRuntime("local-0", RunConfig(scheme="central",
                                                **TINY))
        with pytest.raises(ServeError, match="unknown query op"):
            rt.dispatch(framing.QUERY, {"now": 0.0, "qop": "evict"},
                        b"")


class TestServeParity:
    def test_lockstep_serve_accounts_match_simulator(self):
        """Worker-side query accounts merged from FINAL payloads are
        bit-identical to the simulator oracle's (lockstep mode)."""
        from repro.serve.harness import run_scheme_served
        config = RunConfig(scheme="deco_sync", queries=("sum:500",
                                                        "avg:300:100"),
                           **TINY)
        sim_result, _ = run_scheme(config)
        report = run_scheme_served(config, mode="lockstep")
        assert report.result.queries == sim_result.queries

    def test_runtime_admission_via_coordinator(self):
        """Runtime admissions broadcast after START land on every
        worker under the disjoint rq-namespace and produce windows."""
        from repro.serve.harness import run_scheme_served
        config = RunConfig(scheme="central", queries=("sum:500",),
                           **TINY)
        report = run_scheme_served(
            config, mode="lockstep",
            admissions=[("local-1", "max:400:200", None)])
        queries = report.result.queries
        assert "rq0" in queries
        assert queries["rq0"]["stream"] == "local-1"
        assert queries["rq0"]["windows"] > 0
        # Config queries are untouched by the runtime admission.
        sim_result, _ = run_scheme(config)
        assert {q: a for q, a in queries.items() if q != "rq0"} == \
            sim_result.queries

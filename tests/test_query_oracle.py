"""The multi-query engine against an independent brute-force oracle.

The sharing A/B gate (``tests/test_multiquery.py``) proves that one
engine and N single-query engines agree — both run the same
decomposition, so a wrong split would pass it.  Here every window value
of every query is recomputed by :mod:`tests.window_oracle`, which
reduces each span directly with numpy, over Hypothesis-drawn query
populations, batch sizes, chunk sizes, and admission/removal schedules.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.multiquery import MultiQueryEngine
from repro.streams.batch import EventBatch
from tests import window_oracle as oracle

STREAMS = ("local-0", "local-1")


@st.composite
def query_specs(draw):
    agg = draw(st.sampled_from(oracle.EXACT + oracle.ROUNDED))
    length = draw(st.integers(min_value=1, max_value=160))
    step = draw(st.integers(min_value=1, max_value=length))
    spec = f"{agg}:{length}" if step == length else \
        f"{agg}:{length}:{step}"
    return spec, agg, length, step


def stream_values(seed, n):
    """Values spanning several magnitudes (stresses the sum bound),
    with repeats (stresses min/max/median ties)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 7, n)
    repeat = rng.random(n) < 0.1
    values[repeat] = np.round(values[repeat])
    return values


class TestOracleIndependence:
    def test_oracle_imports_nothing_from_repro(self):
        path = Path(__file__).with_name("window_oracle.py")
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert imported == {"math", "numpy"}

    def test_oracle_by_hand(self):
        values = np.array([1.0, -2.0, 3.0, 4.0, 0.5])
        assert oracle.spans(3, 2, 0, 5) == [(0, 3), (2, 5)]
        assert oracle.spans(3, 2, 1, 5) == [(1, 4)]
        assert oracle.expected_results(values, "sum", 3, 2, 0, 5) == \
            [(0, 2.0), (1, 7.5)]
        assert oracle.expected_results(values, "max", 2, 2, 1, 5) == \
            [(0, 3.0), (1, 4.0)]
        assert oracle.expected_results(values, "median", 5, 5, 0, 5) == \
            [(0, 1.0)]


class TestEngineAgainstOracle:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           chunk_size=st.sampled_from([8, 64, 512]),
           data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_window_matches_brute_force(self, seed, chunk_size,
                                              data):
        """Random admission/removal schedules over two streams: every
        emitted window of every query (removed ones included) equals
        the oracle's, and no window is missing or extra."""
        batches = data.draw(st.lists(
            st.tuples(st.sampled_from(STREAMS),
                      st.integers(min_value=1, max_value=200)),
            min_size=1, max_size=10))
        values = {s: stream_values(seed + i, 2000)
                  for i, s in enumerate(STREAMS)}
        engine = MultiQueryEngine(chunk_size=chunk_size,
                                  keep_results=True)
        pos = dict.fromkeys(STREAMS, 0)
        specs, live = {}, []
        for stream, n in batches:
            for _ in range(data.draw(st.integers(0, 3))):
                if live and data.draw(st.booleans()):
                    engine.remove(live.pop(data.draw(
                        st.integers(0, len(live) - 1))))
                    continue
                spec, agg, length, step = data.draw(query_specs())
                at = pos[stream] + data.draw(st.integers(0, 40))
                qid = engine.admit(stream, spec, at=at)
                specs[qid] = (agg, length, step)
                live.append(qid)
            chunk = values[stream][pos[stream]:pos[stream] + n]
            ids = np.arange(pos[stream], pos[stream] + n)
            engine.append(stream, EventBatch(ids, chunk, ids))
            pos[stream] += n

        for qid, account in engine.accounts().items():
            agg, length, step = specs[qid]
            stop = (pos[account.stream] if account.removed_at is None
                    else account.removed_at)
            stream = values[account.stream]
            want = oracle.expected_results(
                stream, agg, length, step, account.from_position, stop)
            got = account.results
            assert [i for i, _ in got] == [i for i, _ in want], qid
            assert account.windows == len(want)
            spans = oracle.spans(length, step, account.from_position,
                                 stop)
            for (i, g), (_, w), (s, e) in zip(got, want, spans,
                                               strict=True):
                assert oracle.matches(agg, g, w, stream[s:e]), \
                    f"{qid} {agg}:{length}:{step} window {i}: " \
                    f"{g!r} vs oracle {w!r}"

    @pytest.mark.parametrize("agg", oracle.EXACT + oracle.ROUNDED)
    def test_long_windows_cross_many_chunks(self, agg):
        """Windows spanning many index chunks (deep node covers),
        admitted off-alignment, against the oracle."""
        values = stream_values(11, 6000)
        engine = MultiQueryEngine(chunk_size=16, keep_results=True)
        qid = engine.admit("local-0", f"{agg}:1000:333", at=7)
        for at in range(0, len(values), 250):
            ids = np.arange(at, at + 250)
            engine.append("local-0",
                          EventBatch(ids, values[at:at + 250], ids))
        got = engine.account(qid).results
        want = oracle.expected_results(values, agg, 1000, 333, 7,
                                       len(values))
        assert len(got) == len(want) > 10
        for (_, g), (_, w), (s, e) in zip(
                got, want, oracle.spans(1000, 333, 7, len(values)),
                strict=True):
            assert oracle.matches(agg, g, w, values[s:e])

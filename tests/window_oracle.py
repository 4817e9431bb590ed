"""Brute-force reference evaluator for standing count-window queries.

Independent of the code under test: this module imports nothing from
``repro`` (in particular neither ``repro.core.agg_index`` nor
``repro.core.multiquery``).  It enumerates every window span of a
query and reduces the span directly with numpy, so neither a wrong
decomposition split nor a window-index off-by-one in the engine can
cancel out here.
"""

import math

import numpy as np

#: Aggregates the oracle reproduces bit-for-bit.
EXACT = ("count", "min", "max", "median")

#: Aggregates checked within :func:`rounding_bound`.
ROUNDED = ("sum", "avg")

EPS = float(np.finfo(np.float64).eps)


def spans(length, step, first, stop):
    """Every window ``[s, s + length)`` with ``s = first + k * step``
    that is complete by stream position ``stop``, in index order."""
    out = []
    start = first
    while start + length <= stop:
        out.append((start, start + length))
        start += step
    return out


def reduce_span(agg, values):
    """The window result over ``values``.  ``sum``/``avg`` use
    :func:`math.fsum`, the correctly rounded sum."""
    if agg == "count":
        return float(len(values))
    if agg == "min":
        return float(np.min(values))
    if agg == "max":
        return float(np.max(values))
    if agg == "median":
        return float(np.quantile(values, 0.5))
    total = math.fsum(values.tolist())
    if agg == "sum":
        return total
    if agg == "avg":
        return total / len(values)
    raise ValueError(f"no oracle for aggregate {agg!r}")


def rounding_bound(agg, values):
    """Largest admissible ``|engine - oracle|`` for ``sum``/``avg``.

    Any association of ``n`` floating-point additions errs by at most
    ``(n - 1) * u * sum(|x|)`` with ``u = eps / 2``; the oracle's fsum
    adds half an ulp of the result, and ``avg`` one more rounding for
    the division.  ``n * eps * sum(|x|)`` covers all of it.
    """
    n = len(values)
    magnitude = math.fsum(np.abs(values).tolist())
    bound = n * EPS * magnitude
    if agg == "avg":
        return bound / n + EPS * magnitude / n
    return bound


def expected_results(stream, agg, length, step, first, stop):
    """``[(window_index, result)]`` of one query over ``stream`` (the
    full value array) for windows starting at ``first`` and complete
    by ``stop``."""
    return [(i, reduce_span(agg, stream[s:e]))
            for i, (s, e) in enumerate(spans(length, step, first, stop))]


def matches(agg, got, want, values):
    """Whether an engine result agrees with the oracle's."""
    if agg in EXACT:
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= rounding_bound(agg, values)

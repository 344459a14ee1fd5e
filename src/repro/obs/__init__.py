"""Observability: per-query traces, EXPLAIN plans, and a metrics registry.

The measurement substrate for every performance claim in this repo.  The
:class:`Tracer` attributes each query's latency to the rewrite,
bitmap-conjunction, measure-materialization, and aggregation stages (the
same breakdown the paper's Figures 6–8 argue from); :func:`explain`
renders the chosen rewrite plan without executing it; and
:class:`MetricsRegistry` reads the counts that the engine, the executor,
the daemon and the view maintainer each keep, into one JSON-dumpable
document (``repro metrics``).
"""

from .explain import explain, explain_dict, render_plan_text
from .metrics import Histogram, MetricsRegistry
from .trace import QueryTrace, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "Tracer",
    "explain",
    "explain_dict",
    "render_plan_text",
]

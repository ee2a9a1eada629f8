"""Telemetry: spans/traces, a metrics registry, and post-run stats.

Dependency-free observability for the sweep/verify/tune/DES pipelines.
Three parts:

* :mod:`repro.obs.trace` — Chrome-trace-event spans (``obs.span(...)``
  context managers through every hot path), written by ``--trace PATH``
  / ``REPRO_TRACE`` and viewable in Perfetto;
* :mod:`repro.obs.metrics` — always-on counters/gauges (cache hits and
  misses, records computed vs. served warm, shard retries), registered
  in :mod:`repro.runtime.memo` and reset by ``clear_memo_caches()``;
* :mod:`repro.obs.stats` — the trace-file schema validator and the
  ``.stats.json`` sidecar aggregates behind ``repro stats``.

Telemetry is a pure sidecar: records, figures, baselines and tune
digests are byte-identical with tracing on or off — timestamps only
ever land in trace files.  See ``docs/observability.md``.
"""

from repro.obs.metrics import (
    active_series,
    counters,
    gauges,
    inc,
    reset,
    set_gauge,
    snapshot,
)
from repro.obs.stats import (
    STATS_SCHEMA,
    sidecar_path,
    span_aggregates,
    validate_trace,
)
from repro.obs.trace import (
    SPOOL_ENV,
    T0_ENV,
    TRACE_ENV,
    TRACE_SCHEMA,
    begin_session,
    counter_event,
    end_session,
    instant,
    shard_scope,
    span,
    trace_session,
    tracing_enabled,
)

__all__ = [
    # metrics
    "active_series",
    "counters",
    "gauges",
    "inc",
    "reset",
    "set_gauge",
    "snapshot",
    # trace
    "SPOOL_ENV",
    "T0_ENV",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "begin_session",
    "counter_event",
    "end_session",
    "instant",
    "shard_scope",
    "span",
    "trace_session",
    "tracing_enabled",
    # stats
    "STATS_SCHEMA",
    "sidecar_path",
    "span_aggregates",
    "validate_trace",
]

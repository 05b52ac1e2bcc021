"""Metric names and units the benchmark reports (no ``repro`` import, so
the runner can use it before the program is on the path)."""

from __future__ import annotations

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "norm_histories_per_s": "1/s",
    "setup_s": "s",
    "norm_cpu_s_per_khist": "s",
    "peak_rss_mb": "MiB",
}

#: Kernels whose profile rows the traced run reports, in table order.
KERNEL_NAMES = (
    "distances", "select_events", "collide", "cross_facet", "census",
    "xs_lookup", "xs_lookup_ce",
    "facet_distances_3d", "collide_3d", "cross_facet_3d",
)

#: Per-layer metrics (``--trace 1``): name -> unit, in report order.
PER_LAYER = {
    **{
        f"kernels.{k}.{field}": unit
        for k in KERNEL_NAMES
        for field, unit in (("s", "s"), ("calls", "count"),
                            ("items", "count"))
    },
    "kernels.s": "s",
    "kernels.ns_per_item": "ns",
    "tally.flush_s": "s",
    "tally.flush_calls": "count",
    "tally.flushes": "count",
    "xs.build_s": "s",
    "xs.lookup_s": "s",
    "xs.lookup_calls": "count",
    "xs.lookups": "count",
    "xs.probes": "count",
    "rng.s": "s",
    "rng.calls": "count",
    "rng.draws": "count",
    "source.s": "s",
    "source.histories": "count",
    "stepper.s": "s",
    "stepper.census_steps": "count",
    "stepper.event_passes": "count",
    "stepper.op_blocks": "count",
    "stepper.events": "count",
    "pool.dispatch_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.busy_frac": "frac",
    "pool.reduce_s": "s",
    "pool.retries": "count",
    "pool.respawns": "count",
    "ensemble.replicas": "count",
    "ensemble.source_s": "s",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "frac",
    "obs.trace_overhead": "frac",
    "host.calib_us": "us",
    "host.probe_ms": "ms",
}

#: Tracer layer -> the row reporting its self time.  Self times never
#: overlap, so these rows plus ``unattributed_s`` sum to ``trace.wall_s``.
SELF_TIME_ROWS = {
    "source": "source.s",
    "xs.build": "xs.build_s",
    "xs.lookup": "xs.lookup_s",
    "rng": "rng.s",
    "kernels": "kernels.s",
    "tally": "tally.flush_s",
    "ensemble.source": "ensemble.source_s",
    "pool.dispatch": "pool.dispatch_s",
    "pool.reduce": "pool.reduce_s",
}

#: Value reported for a layer metric the workload exercises but the
#: benchmark cannot observe from outside.  Never a measurement: no time
#: or count is negative.  (A layer a workload does not exercise reads 0.)
UNAVAILABLE = -1

#: Rows the parent process cannot observe on the pooled workload:
#: ``run_ensemble(nworkers=2)`` returns an empty kernel profile and
#: merges no worker spans, and worker-side calls never reach the parent.
POOLED_GAPS = (
    *(f"kernels.{k}.{field}" for k in KERNEL_NAMES
      for field in ("s", "calls", "items")),
    "kernels.s", "kernels.ns_per_item",
    "tally.flush_s", "tally.flush_calls",
    "xs.lookup_s", "xs.lookup_calls", "rng.s", "rng.calls",
    "stepper.s", "stepper.census_steps", "stepper.event_passes",
    "stepper.op_blocks",
)

#: The 3-D driver samples its source through a private helper that
#: cannot be wrapped from outside.
THREE_D_GAPS = ("source.s", "source.histories")


def is_exact_count(name: str) -> bool:
    """Counts that must repeat exactly between runs of one seed."""
    return name.endswith((".calls", ".items")) or name in (
        "xs.lookups", "tally.flushes", "rng.draws", "stepper.events",
    )

"""One benchmark sample in a fresh process: set up one workload, make one
transport call, check it, and print one JSON line.

Launched by ``run.py``.  One sample by hand, from the checkout root:
``PYTHONPATH=src python3 perfbench/worker.py --workload csp_oe --seed 1``.
Set-up is everything before the transport call -- interpreter start,
imports, config or ensemble-member build and the cross-section backend --
so the parent measures it as launch-to-``t_first_call``.  An untraced
sample also times the host with ``reference.HostProbe`` during the
transport call and leaves the probes' own time out of ``cpu_s`` and, in
a serial call, out of ``transport_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import (  # noqa: E402
    KERNEL_NAMES,
    SELF_TIME_ROWS,
    UNAVAILABLE,
)
from reference import HostProbe  # noqa: E402
from workloads import ENSEMBLE_WORKERS, WORKLOADS  # noqa: E402


def _cpu_s(who: int) -> float:
    """User+sys CPU of this process (``RUSAGE_SELF``) or of its reaped
    children (``RUSAGE_CHILDREN``)."""
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibrate_us(repeats: int = 11) -> float:
    """Median time of one ``KERNEL_TABLE["distances"]`` call on a fixed
    seeded 16384-lane batch: a host-speed reference, recorded with every
    result and never gated on."""
    import numpy as np

    from repro.kernels import KERNEL_TABLE, Workspace

    n = 16384
    rng = np.random.default_rng(12345)
    dx = dy = 1.0 / 128
    cellx = rng.integers(0, 128, n)
    celly = rng.integers(0, 128, n)
    args = (
        rng.uniform(1e3, 1e6, n),             # energy
        rng.exponential(1.0, n),              # mfp_to_collision
        rng.uniform(1.0, 100.0, n),           # sigma_t
        (cellx + rng.uniform(0, 1, n)) * dx,  # x
        (celly + rng.uniform(0, 1, n)) * dy,  # y
        np.cos(theta := rng.uniform(0, 2 * np.pi, n)),
        np.sin(theta),
        cellx, celly, dx, dy,
        np.full(n, 1e-7),                     # dt_to_census
    )
    ws = Workspace()
    kernel = KERNEL_TABLE["distances"]
    kernel(ws, *args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(ws, *args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def layer_metrics(wl, result, tracer, recorder, traced_wall_s,
                  children_cpu_s) -> dict:
    """Per-layer numbers of one traced transport call."""
    c = result.counters
    self_s = tracer.self_s
    calls = tracer.calls
    m: dict[str, float] = {}

    profile = c.kernel_profile
    for k in KERNEL_NAMES:
        ncalls, items, seconds = profile.get(k, (0, 0, 0.0))
        m[f"kernels.{k}.s"] = seconds
        m[f"kernels.{k}.calls"] = ncalls
        m[f"kernels.{k}.items"] = items
    prof_s = sum(row[2] for row in profile.values())
    prof_items = sum(row[1] for row in profile.values())
    m["kernels.s"] = self_s["kernels"]
    m["kernels.ns_per_item"] = 1e9 * prof_s / prof_items if prof_items else 0.0

    m["tally.flush_s"] = self_s["tally"]
    m["tally.flush_calls"] = calls["tally"]
    m["tally.flushes"] = c.tally_flushes

    m["xs.build_s"] = self_s["xs.build"]
    m["xs.lookup_s"] = self_s["xs.lookup"]
    m["xs.lookup_calls"] = calls["xs.lookup"]
    m["xs.lookups"] = c.xs_lookups
    m["xs.probes"] = c.xs_binary_probes + c.xs_linear_probes

    m["rng.s"] = self_s["rng"]
    m["rng.calls"] = calls["rng"]
    m["rng.draws"] = c.rng_draws

    m["source.s"] = self_s["source"]
    m["source.histories"] = wl.histories(result) if calls["source"] else 0

    spans = recorder.spans
    m["stepper.s"] = sum(s.duration_s for s in spans if s.name == "run")
    m["stepper.census_steps"] = sum(1 for s in spans if s.name == "timestep")
    m["stepper.event_passes"] = sum(
        1 for s in spans if s.name == "event_pass"
    )
    m["stepper.op_blocks"] = sum(1 for s in spans if s.name == "census_wave")
    m["stepper.events"] = c.total_events

    dispatch_s = self_s["pool.dispatch"]
    m["pool.dispatch_s"] = dispatch_s
    m["pool.worker_cpu_s"] = children_cpu_s
    m["pool.busy_frac"] = (
        children_cpu_s / (ENSEMBLE_WORKERS * dispatch_s)
        if dispatch_s > 0 else 0.0
    )
    m["pool.reduce_s"] = self_s["pool.reduce"]
    m["pool.retries"] = sum(1 for e in recorder.events if e.name == "retry")
    m["pool.respawns"] = sum(
        1 for e in recorder.events if e.name == "respawn"
    )

    m["ensemble.replicas"] = len(result.replicas) if wl.pooled else 0
    m["ensemble.source_s"] = self_s["ensemble.source"]

    attributed = sum(self_s[layer] for layer in SELF_TIME_ROWS)
    m["trace.wall_s"] = traced_wall_s
    m["unattributed_s"] = traced_wall_s - attributed
    m["unattributed_frac"] = m["unattributed_s"] / traced_wall_s

    for name in wl.gaps:
        m[name] = UNAVAILABLE
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds, not minutes)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]

    job = wl.build(args.seed, args.tiny)
    tracer = recorder = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        recorder = tracing.LayerRecorder(tracer)
    host = HostProbe()
    own0 = _cpu_s(resource.RUSAGE_SELF)
    kids0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t_first_call = time.monotonic()
    t0 = time.perf_counter()
    if tracer is None:
        with host.during():
            result = wl.run(job, None)
    else:
        with tracing.installed(tracer, wl.pooled):
            result = wl.run(job, recorder)
    # A serial call stands still while a probe runs; a pooled call's
    # workers go on while its parent probes.
    transport_s = time.perf_counter() - t0 - (
        0.0 if wl.pooled else host.during_s
    )
    kids_s = _cpu_s(resource.RUSAGE_CHILDREN) - kids0
    cpu_s = (_cpu_s(resource.RUSAGE_SELF) - own0 - host.during_cpu_s
             + kids_s)
    if tracer is None:
        host.top_up()

    out = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "t_first_call": t_first_call,
        "transport_s": transport_s,
        "cpu_s": cpu_s,
        "histories": int(wl.histories(result)),
        "probe_s": host.median_s if host.times else None,
        "problems": wl.check(result),
        "fingerprint": wl.fingerprint(result),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(
            wl, result, tracer, recorder, transport_s, kids_s
        )
    out["peak_rss_mb"] = _peak_rss_mb()
    out["calib_us"] = calibrate_us()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

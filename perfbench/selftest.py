"""The benchmark's own self-test, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that the tracer charges nested calls to the inner layer only,
that the host probe fires inside a block and is topped up after it,
and, for every workload, that

* the untraced run is correct and emits every end-to-end metric, each a
  positive number;
* two traced runs emit every per-layer metric; only the known gaps read
  ``UNAVAILABLE``; every count repeats exactly across the two runs; and
  the self-time rows plus ``unattributed_s`` sum to ``trace.wall_s``
  with ``unattributed_s >= 0`` (no layer is counted twice).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SELF_TIME_ROWS,
    UNAVAILABLE,
    is_exact_count,
)
from reference import MIN_PROBES, PROBE_INTERVAL_S, HostProbe  # noqa: E402
from tracing import LayerRecorder, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_tracer() -> list[str]:
    """Two nested wrapped calls and two nested pool spans, timed with
    sleeps: an outer layer that is also charged its inner calls' time
    would read at least 0.06 s here."""
    tracer = Tracer()
    inner = tracer.wrap("inner", "inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", "outer", outer_body)
    rec = LayerRecorder(tracer)
    t0 = time.perf_counter()
    outer()
    outer()
    with rec.span("ensemble_run"), rec.span("ensemble_dispatch"):
        time.sleep(0.02)
    wall = time.perf_counter() - t0
    s = tracer.self_s
    errors = []
    if not 0.02 <= s["outer"] < 0.04:
        errors.append(f"outer self time {s['outer']:.4f} s, expected ~0.02")
    if not 0.04 <= s["inner"] < 0.06:
        errors.append(f"inner self time {s['inner']:.4f} s, expected ~0.04")
    if not 0.02 <= s["pool.dispatch"] < 0.03 or s["pool.reduce"] >= 0.01:
        errors.append("pool span frames not nested")
    if sum(s.values()) > wall:
        errors.append("self times exceed the wall-clock")
    if (tracer.calls["outer"], tracer.calls["inner"]) != (2, 2):
        errors.append(f"call counts {dict(tracer.calls)}")
    return errors


def check_probe() -> list[str]:
    """A 3.5-interval sleep gets 3 probes inside it (their time is
    counted in ``during_s``), and ``top_up`` brings the total to
    ``MIN_PROBES`` without adding to ``during_s``."""
    probe = HostProbe()
    with probe.during():
        deadline = time.perf_counter() + 3.5 * PROBE_INTERVAL_S
        while time.perf_counter() < deadline:
            time.sleep(0.005)
    inside, during_s = len(probe.times), probe.during_s
    probe.top_up()
    errors = []
    if inside != 3:
        errors.append(f"{inside} probes inside the block, expected 3")
    if not 0 < during_s <= 3.5 * PROBE_INTERVAL_S:
        errors.append(f"during_s {during_s:.4f}")
    if len(probe.times) != MIN_PROBES or probe.during_s != during_s:
        errors.append("top_up wrong")
    return errors


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_workload(wl) -> list[str]:
    errors = []
    plain = bench(wl.name, 0)
    if not plain["correct"]:
        errors.append("untraced run not correct")
    if set(plain["metrics"]) != set(END_TO_END):
        errors.append(f"end-to-end metrics {sorted(plain['metrics'])}")
    for name, m in plain["metrics"].items():
        if not m["value"] > 0:
            errors.append(f"{name} = {m['value']} is not positive")

    gaps = set(wl.gaps)
    runs = [bench(wl.name, 1), bench(wl.name, 1)]
    for i, run in enumerate(runs):
        if not run["correct"]:
            errors.append(f"traced run {i} not correct")
        if set(run["metrics"]) != set(PER_LAYER):
            errors.append(f"traced run {i}: per-layer names differ")
            continue
        values = {k: m["value"] for k, m in run["metrics"].items()}
        for name, v in values.items():
            if (v == UNAVAILABLE) != (name in gaps):
                errors.append(f"{name} = {v}: gap marking wrong")
            elif v < 0 and name not in gaps | {"obs.trace_overhead"}:
                errors.append(f"{name} = {v} is negative")
        attributed = sum(
            max(values[row], 0) for row in SELF_TIME_ROWS.values()
        )
        wall = values["trace.wall_s"]
        if abs(attributed + values["unattributed_s"] - wall) > 1e-9 * wall:
            errors.append(f"traced run {i}: rows do not sum to the wall")
        if values["unattributed_s"] < 0:
            errors.append(f"traced run {i}: unattributed_s < 0")
    a, b = (run["metrics"] for run in runs)
    for name in PER_LAYER:
        if is_exact_count(name) and a[name]["value"] != b[name]["value"]:
            errors.append(
                f"{name}: {a[name]['value']} then {b[name]['value']}"
            )
    return errors


def main() -> int:
    failed = False
    for name, check in (("tracer", check_tracer), ("probe", check_probe)):
        errors = check()
        print(f"{name}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  {e}")
        failed |= bool(errors)
    for wl in WORKLOADS.values():
        errors = check_workload(wl)
        print(f"{wl.name}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  {e}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload csp_oe --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (``src/repro`` must exist; nothing is
installed).  Each sample is a fresh ``worker.py`` process that sets the
workload up from the seed, makes one transport call and checks its
physics, so set-up (interpreter start, imports, config and cross-section
build) is measured on every sample.  Samples run one after another until
``--seconds`` have elapsed (at least ``MIN_SAMPLES`` of each kind).
Each untraced sample also times a fixed probe (``reference.py``), and
its set-up time, transport time and CPU are read at the nominal host
speed the probes show.

``--trace 0`` reports the end-to-end metrics (medians over samples);
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the median traced sample, plus the tracing overhead.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import re
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    UNAVAILABLE,
    is_exact_count,
)
from reference import NOMINAL_PROBE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Samples of each kind a run takes even when ``--seconds`` is shorter.
MIN_SAMPLES = 3
#: No sample is started later than this into the run, so the whole run
#: ends well inside a 180 s limit.
LAST_START_S = 110.0
#: A sample that runs longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 60.0
#: Splits a stderr text before each traceback it holds.
TRACEBACK = re.compile(r"(?m)^(?=Traceback \(most recent call last\):)")


def host_facts() -> dict:
    """Facts to read a result against; recorded, never gated on."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_sample(workload: str, seed: int, trace: int, tiny: bool,
               env: dict) -> dict:
    """Launch one worker, wait for it and everything it started, and
    return its parsed result (or the reason it failed)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        # Returns once the worker *and* every process holding its pipes
        # (pool workers, the shared-memory resource tracker) has exited.
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return {"trace": trace, "error": "timed out", "stderr": err}
    sample = {"trace": trace, "stderr": err}
    if proc.returncode != 0:
        sample["error"] = f"exit code {proc.returncode}"
        return sample
    try:
        sample.update(json.loads(out.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        sample["error"] = "no result line"
        return sample
    sample["setup_s"] = sample["t_first_call"] - t_launch
    if sample["probe_s"] is not None:
        sample["slowdown"] = sample["probe_s"] / NOMINAL_PROBE_S
    if sample["problems"]:
        sample["error"] = "; ".join(sample["problems"])
    return sample


def majority(values):
    return Counter(values).most_common(1)[0][0]


def fail_outliers(samples: list[dict]) -> None:
    """Mark samples failed whose fingerprint (population + tally hash)
    differs from the majority: every repeat of one seed, traced or not,
    must produce the same physics."""
    good = [s for s in samples if "error" not in s]
    if not good:
        return
    expected = majority(s["fingerprint"] for s in good)
    for s in good:
        if s["fingerprint"] != expected:
            s["error"] = "fingerprint differs from the other repeats"
    traced = [s for s in samples if "error" not in s and s["trace"]]
    if len(traced) < 2:
        return
    for name in traced[0]["layers"]:
        if not is_exact_count(name):
            continue
        expected = majority(s["layers"][name] for s in traced)
        for s in traced:
            if s["layers"][name] != expected and "error" not in s:
                s["error"] = f"count {name} did not repeat exactly"


def stderr_summary(samples: list[dict]) -> tuple[int, int, list[str]]:
    """(stderr lines, resource-tracker messages, first other lines).

    A pooled run can make ``multiprocessing.resource_tracker`` print a
    ``KeyError: '/psm_...'`` traceback at teardown after a correct run:
    recorded, not counted as a failure."""
    lines = tracker = 0
    other: list[str] = []
    for s in samples:
        lines += len(s["stderr"].splitlines())
        for block in TRACEBACK.split(s["stderr"]):
            if "resource_tracker" in block and "/psm_" in block:
                tracker += 1
            else:
                other += block.splitlines()
    return lines, tracker, other[:5]


def histories_per_s(s: dict) -> float:
    """Histories per second of transport wall-clock, as measured."""
    return s["histories"] / s["transport_s"]


def norm_histories_per_s(s: dict) -> float:
    """``histories_per_s`` at the nominal host speed (untraced samples)."""
    return histories_per_s(s) * s["slowdown"]


def end_to_end_metrics(good: list[dict]) -> dict:
    return {
        "norm_histories_per_s": statistics.median(
            norm_histories_per_s(s) for s in good
        ),
        "setup_s": statistics.median(
            s["setup_s"] / s["slowdown"] for s in good
        ),
        "norm_cpu_s_per_khist": statistics.median(
            s["cpu_s"] / s["slowdown"] / (s["histories"] / 1000.0)
            for s in good
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
    }


def per_layer_metrics(good: list[dict]) -> dict:
    """Rows of the traced sample with the median wall-clock (one sample,
    so its rows still close the sum), plus the tracing overhead."""
    traced = sorted(
        (s for s in good if s["trace"]), key=lambda s: s["transport_s"]
    )
    untraced = [s for s in good if not s["trace"]]
    rows = dict(traced[(len(traced) - 1) // 2]["layers"])
    hps = statistics.median(histories_per_s(s) for s in untraced)
    hps_traced = statistics.median(histories_per_s(s) for s in traced)
    rows["obs.trace_overhead"] = hps / hps_traced - 1.0
    rows["host.calib_us"] = statistics.median(s["calib_us"] for s in good)
    rows["host.probe_ms"] = 1e3 * statistics.median(
        s["probe_s"] for s in untraced
    )
    return rows


def take_samples(args, kinds, env) -> list[dict]:
    """Samples of each kind in turn until the next round would overrun
    ``--seconds`` (but at least ``MIN_SAMPLES`` rounds)."""
    samples: list[dict] = []
    t_start = time.monotonic()
    longest = 0.0
    while True:
        for kind in kinds:
            t0 = time.monotonic()
            samples.append(run_sample(
                args.workload, args.seed, kind, args.tiny, env
            ))
            longest = max(longest, time.monotonic() - t0)
        next_end = time.monotonic() - t_start + longest * len(kinds)
        enough = len(samples) >= MIN_SAMPLES * len(kinds)
        if enough and next_end > args.seconds:
            return samples
        if next_end > LAST_START_S:
            return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds, not minutes)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    # Byte-compile up front so no sample pays first-import compilation.
    compileall.compile_dir(src, quiet=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )

    kinds = (0, 1) if args.trace else (0,)
    # Temporary files of the samples (the pool's flight-recorder
    # directory) stay inside the checkout.
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    try:
        samples = take_samples(args, kinds, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    fail_outliers(samples)
    good = [s for s in samples if "error" not in s]
    failed = len(samples) - len(good)
    print("host: " + json.dumps(host_facts()))
    nlines, ntracker, other = stderr_summary(samples)
    print(f"stderr: {nlines} lines over {len(samples)} samples; "
          f"{ntracker} resource-tracker teardown messages (not failures)")
    for line in other:
        print(f"  stderr: {line}")
    for s in samples:
        if "error" in s:
            print(f"failed sample (trace={s['trace']}): {s['error']}")
    print(f"failed_frac: {failed}/{len(samples)} = "
          f"{failed / len(samples):.3f}")
    if any(not any(s["trace"] == k for s in good) for k in kinds):
        print("error: no sample of some kind succeeded", file=sys.stderr)
        return 1

    if args.trace:
        units = PER_LAYER
        values = per_layer_metrics(good)
    else:
        units = END_TO_END
        values = end_to_end_metrics(good)
    untraced = [s for s in good if not s["trace"]]
    print("unscaled medians of untraced samples: histories_per_s "
          f"{statistics.median(histories_per_s(s) for s in untraced):.6g}"
          " 1/s, setup_s "
          f"{statistics.median(s['setup_s'] for s in untraced):.4g} s; "
          "host slowdown vs nominal: "
          f"{statistics.median(s['slowdown'] for s in untraced):.4g}")
    for name, unit in units.items():
        v = values[name]
        shown = "unavailable" if v == UNAVAILABLE else f"{v:.6g} {unit}"
        print(f"{name:<34} {shown}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

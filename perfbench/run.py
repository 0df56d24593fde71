"""curvsol benchmark: one client in one process runs a seeded workload's
jobs back to back (a closed loop), checks every output by meaning, and
prints the metrics as the last line of standard output.

    python3 perfbench/run.py --workload speed-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced and traced passes over the same jobs and prints the
per-layer metrics, per traced pass, and the tracing overhead.  Artifacts,
spans and results go to ``.perfbench-run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import env

env.pin_threads()          # before numpy loads its BLAS
import numpy as np  # noqa: E402

WORKLOADS = ("speed-suite", "profile-study", "fixed-point")
MIN_TIMED_JOBS = 100      # so that at least ten jobs lie beyond the 90th percentile
SETUP_PROBES = 7
CALIBRATION_REF_S = 1.2e-3     # calibration kernel time that the reported times assume
OUT_DIR = env.ROOT / ".perfbench-run"

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "done_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_CALLS = (
    "speeds.eval_speed", "speeds.eval_derivatives", "speeds.support_violation",
    "cones.contains", "rotgeom.graph_curvatures", "profiles.cyl_height",
    "picard.operator_T", "profiles.harmonic_rhs_dw", "io.fmt",
)
PER_LAYER_SELF = (
    "speeds.eval_speed", "speeds.eval_derivatives", "speeds.support_violation",
    "speeds.check_properties", "cones.cone_separation", "profiles.integrate_profile",
    "profiles.cyl_height", "picard.operator_T", "picard.lipschitz_radius",
    "verifier.check_soliton", "verifier.fit_convexity_params",
    "verifier.check_convexity_estimate", "verifier.check_sigma2_cylinder",
    "verifier.estimate_pinching_constants", "io.write_profile_csv", "io.read_profile_csv",
    "io.derived_columns", "svgfig.render_chart",
)
LAYER_SELF = ("speeds", "cones", "rotgeom", "profiles", "picard", "verifier", "io", "cli")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    **{f"{name}.calls": "count" for name in PER_LAYER_CALLS},
    **{f"{name}.self_s": "s" for name in PER_LAYER_SELF},
    "speeds.sample_interior.accept_ratio": "ratio",
    "profiles.integrate_profile.nodes": "count",
    "profiles.rhs_evals": "count",
    "profiles.rhs_evals_per_node": "ratio",
    "profiles.cyl_height.calls_per_height": "ratio",
    "picard.picard_solve.iterations": "count",
    "io.bytes_written": "bytes",
    "trace_overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table, passes: int, bytes_written: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics per traced pass from a ``tracer.SpanTable``."""
    m = {f"{layer}.self_s": table.layer_self_time(layer) / passes for layer in LAYER_SELF}
    m.update({f"{name}.calls": table.call_count(name) / passes for name in PER_LAYER_CALLS})
    m.update({f"{name}.self_s": table.self_time(name) / passes for name in PER_LAYER_SELF})
    nodes = table.counters["profiles.integrate_profile.nodes"]
    rhs = table.call_count("profiles.sigma_rhs") + table.call_count("profiles.harmonic_rhs")
    m.update({
        "speeds.sample_interior.accept_ratio": _ratio(
            table.call_count("speeds.sample_interior"),
            table.nested.get(("speeds.in_support", "speeds.sample_interior"), 0)),
        "profiles.integrate_profile.nodes": nodes / passes,
        "profiles.rhs_evals": rhs / passes,
        "profiles.rhs_evals_per_node": _ratio(rhs, nodes),
        # one solve_cyl_profile call per checked height
        "profiles.cyl_height.calls_per_height": _ratio(
            table.call_count("profiles.cyl_height"),
            table.call_count("profiles.solve_cyl_profile")),
        "picard.picard_solve.iterations": table.counters["picard.picard_solve.iterations"] / passes,
        "io.bytes_written": bytes_written,
        "trace_overhead_frac": overhead,
    })
    return m


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def calibration_kernel() -> float:
    """A fixed computation in the style of curvsol's hot paths, Python
    loops over small numpy arrays, that does not touch curvsol; its time
    tracks the speed the shared machine gives this process."""
    acc = 0.0
    x = np.linspace(0.5, 1.5, 6)
    for i in range(150):
        s = np.sort(x * (1.0 + 1e-3 * i))
        e = [1.0, 0.0, 0.0, 0.0]
        for v in s:
            for j in range(3, 0, -1):
                e[j] += v * e[j - 1]
        acc += e[3] / float(np.linalg.norm(s))
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def run_pass(jobs, calibration: Optional[list] = None) -> tuple[list, list[float], float]:
    """Run every job once, back to back: (outcomes, latencies, wall time).
    With a ``calibration`` list, the calibration kernel is timed before
    each job, outside its latency, and appended to the list."""
    clock = time.perf_counter
    outcomes, latencies = [], []
    t_pass = clock()
    for job in jobs:
        if calibration is not None:
            calibration.append(time_kernel())
        t0 = clock()
        outcomes.append(job.call())
        latencies.append(clock() - t0)
    return outcomes, latencies, clock() - t_pass


class Ledger:
    """Verdicts of every checked job in the measured part of a run."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.done = 0
        self.reasons: list[str] = []

    def check(self, jobs, outcomes) -> None:
        for job, outcome in zip(jobs, outcomes):
            verdict = job.check(outcome)
            self.attempted += 1
            self.done += verdict.ok and verdict.done
            if not verdict.ok:
                self.wrong += 1
                self.reasons.append(f"{job.name}: {verdict.reason}")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh interpreter until it has imported
    ``curvsol.cli`` and built the workload's inputs and references, and the
    calibration kernel's time in that interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=env.ROOT) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        kernel, err = proc.communicate(timeout=120)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed, float(kernel)


def at_reference_speed(times: list[float], calibration: list[float]) -> list[float]:
    """Each time scaled by ``CALIBRATION_REF_S`` over the median calibration
    time of the five nearest jobs, so that a spell in which the shared
    machine runs this process slower or faster scales both alike."""
    return [t * CALIBRATION_REF_S / statistics.median(calibration[max(0, i - 2):i + 3])
            for i, t in enumerate(times)]


def latency_metrics(latencies: list[float], jobs_per_pass: int) -> dict[str, float]:
    """Throughput and latency quantiles from the timed passes' latencies,
    in job order, pass after pass."""
    passes = [latencies[i:i + jobs_per_pass] for i in range(0, len(latencies), jobs_per_pass)]
    # A pass as the median latency of each of its jobs over the passes.
    typical_pass = sum(statistics.median(job) for job in zip(*passes))
    return {
        "jobs_per_s": jobs_per_pass / typical_pass,
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def end_to_end(wl, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Timed passes for ``seconds`` of job time, with the set-up probes
    spread between them so that they sample the whole run.

    Returns the metrics at the reference machine speed and as measured:
    the calibration kernel runs before every job and in every probe, and
    times are reported as if it took ``CALIBRATION_REF_S``."""
    latencies, calibration, setup, setup_cal = [], [], [], []
    probe_at = [seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    timed = 0.0
    while timed < seconds or len(latencies) < MIN_TIMED_JOBS:
        outcomes, pass_latencies, _ = run_pass(wl.jobs, calibration)
        ledger.check(wl.jobs, outcomes)
        latencies += pass_latencies
        timed += sum(pass_latencies)
        while len(setup) < SETUP_PROBES and (timed >= probe_at[len(setup)] or timed >= seconds):
            elapsed, kernel = probe_setup(wl.name, wl.seed)
            setup.append(elapsed)
            setup_cal.append(kernel)
    common = {"done_frac": ledger.done / ledger.attempted,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    measured = {**latency_metrics(latencies, len(wl.jobs)), **common,
                "setup_s": statistics.median(setup),
                "calibration_s": statistics.median(calibration)}
    values = {**latency_metrics(at_reference_speed(latencies, calibration), len(wl.jobs)),
              **common,
              "setup_s": statistics.median(t * CALIBRATION_REF_S / k
                                           for t, k in zip(setup, setup_cal))}
    return values, measured


def per_layer(wl, seconds: float, ledger: Ledger, spans_path: Path) -> dict[str, float]:
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        outcomes, _, wall = run_pass(wl.jobs)
        ledger.check(wl.jobs, outcomes)
        plain.append(wall)
        with tracer:
            outcomes, _, wall = run_pass(wl.jobs)
        ledger.check(wl.jobs, outcomes)
        traced.append(wall)
    tracer.write(spans_path)
    # a job that fails by design writes nothing
    written = sum(p.stat().st_size for job in wl.jobs for p in job.outputs if p.exists())
    # each traced pass against the untraced pass just before it
    overhead = statistics.median(t / u for t, u in zip(traced, plain)) - 1.0
    return layer_metrics(tracer.table(), len(traced), written, overhead)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args) -> dict:
    import scipy
    return {
        "git_sha": _git_sha(env.ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.import_curvsol()
    except (env.MissingProgramError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, workdir)

    warmup = Ledger()
    outcomes, _, _ = run_pass(wl.jobs)
    warmup.check(wl.jobs, outcomes)
    ledger = Ledger()
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}.npz"     # the latest traced run
        values = per_layer(wl, args.seconds, ledger, spans)
        record_extra = {}
        units = PER_LAYER_UNITS
    else:
        values, measured = end_to_end(wl, args.seconds, ledger)
        record_extra = {"as_measured": measured}
        units = END_TO_END_UNITS
    for reason in (warmup.reasons + ledger.reasons)[:20]:
        print(f"wrong output: {reason}", file=sys.stderr)

    result = {
        "correct": warmup.wrong == 0 and ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.wrong,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"context": context(args), "jobs_per_pass": len(wl.jobs), **record_extra, **result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"context": record["context"], "jobs_per_pass": len(wl.jobs), **record_extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on several seeds and summarise each metric as its
median and quartiles, with the spread (q3 - q1) / median against the bound
declared in BENCHMARK.json.

    python3 perfbench/repeat.py --workload speed-suite --seeds 1-10 [--trace 0]
        [--record LABEL]

``--record`` appends the summary, with the run context, to
``perfbench/trajectory.json`` as one point of the benchmark's history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name),
                     "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="LABEL")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        run = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        print(f"seed {seed}: correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']}", file=sys.stderr)
        runs.append(run)
    summary = summarise(runs, bounds)
    for name, s in summary.items():
        flag = "" if s["bound"] is None else \
            f"  bound {s['bound']:.2f}{'  OVER' if s['spread'] > s['bound'] else ''}"
        print(f"{name:44s} {s['median']:12.6g} {s['unit']:7s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}{flag}")
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append({"label": args.record, "workload": args.workload, "trace": args.trace,
                        "seeds": args.seeds, "context": runs[0]["context"],
                        "all_correct": all(r["correct"] for r in runs),
                        "metrics": {k: {f: v[f] for f in ("unit", "median", "q1", "q3", "spread")}
                                    for k, v in summary.items()}})
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

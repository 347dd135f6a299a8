"""Repeat the benchmark over seeds and report the spread of every metric.

Usage, from the root of a checkout:

    python3 benchmarks/repeat.py --seeds 1-10 [--workloads docking_steps,cartpole_run]
        [--seconds 20] [--trace 0] [--out benchmarks/baseline.json]

Runs ``benchmarks/run.py`` once per workload and seed, one run at a time, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread: the distance between the quartiles as a share of
the median.  With ``--trace 0`` each end-to-end spread is checked against a
third of its bound in BENCHMARK.json.  ``--out`` merges the summary, with the
machine facts and the per-layer metric map, into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from spans import LAYER_METRICS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        results, reports = [], []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
            results.append(result)
            reports.append(report)
            shown = "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                              if k in bounds or k.startswith("trace."))
            print(f"{workload} seed {seed}: {shown}  (inputs {report['inputs_sha256'][:12]}, "
                  f"outputs {report['outputs_sha256'][:12]})", flush=True)

        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summarize([r["metrics"][name]["value"] for r in results])}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "seeds": parse_seeds(args.seeds),
            "seconds": args.seconds,
            "error_rate": {"failed": failed, "attempted": attempted},
            "output_bytes_per_step": summarize([r["output_bytes_per_step"] for r in reports]),
            "metrics": metrics,
        }
        summary[workload] = {"why": reports[0]["why"], ("end_to_end" if args.trace == 0 else "per_layer"): entry}
        print(f"{workload}: error_rate {failed / attempted:g} ({failed} failed of {attempted})  output_bytes_per_step "
              f"{entry['output_bytes_per_step']['median']:.1f} B/step")
        for name, m in metrics.items():
            note = ""
            if name in bounds:
                ok = m["spread"] < bounds[name] / 3
                steady &= ok or name == "setup_s"
                note = f"  bound {bounds[name]}  {'steady' if ok else 'SPREAD ABOVE A THIRD OF THE BOUND'}"
            print(f"  {name:30} median {m['median']:12.4f} {m['unit']:10} q1 {m['q1']:.4f}  "
                  f"q3 {m['q3']:.4f}  spread {m['spread']:.4f}{note}")

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        data["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "numpy": reports[-1]["machine"]["numpy"], "platform": platform.platform()}
        data["layers"] = {name: {"unit": unit, "moves": moves, "mostly_on": where}
                          for name, (unit, moves, where) in LAYER_METRICS.items()}
        for workload, entry in summary.items():
            data.setdefault("workloads", {}).setdefault(workload, {}).update(entry)
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())

"""envforge benchmark: one workload, measured end to end or layer by layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload docking_steps --seed 1 --seconds 25 --trace 0

Workloads: docking_steps, cartpole_run, docking_pipeline, docking_pipeline_w2
(see workloads.py).  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones from spans recorded around envforge's public calls
(see spans.py).  The program under test is the checkout's ``src/envforge``;
its inputs are generated from ``--seed``.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only if every correctness check passed.
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

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7  # fresh processes timed per run; setup_s is their median
TRACE_UNTRACED_SHARE = 1 / 3  # of a traced run, measured before tracing starts
END_TO_END = {"steps_per_s": "steps/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# The keys of workloads.WORKLOADS, named here because that module imports
# envforge, which may only be imported once the checkout has been checked.
WORKLOAD_NAMES = ("docking_steps", "cartpole_run", "docking_pipeline", "docking_pipeline_w2")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout() -> str | None:
    """Why the program under test cannot be run from here, or None."""
    for needed in ("src/envforge/__init__.py", "configs/docking/environment.yml",
                   "configs/cartpole/environment.yml"):
        if not (ROOT / needed).is_file():
            return f"{ROOT / needed} is missing; run the benchmark from a full checkout of envforge"
    return None


class SetupProbes:
    """Set-up times of fresh processes, spread evenly over the timed run.

    Spreading them makes ``setup_s`` sample the machine over the same window
    as the throughput figures, not only during the first seconds of a run.
    """

    def __init__(self, env_config: str, seconds: float):
        self.argv = [sys.executable, str(ROOT / "benchmarks" / "setup_probe.py"), str(ROOT / env_config)]
        self.due = [i * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.samples: list[dict[str, float]] = []

    def run_due(self, elapsed: float) -> None:
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
            self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def medians(self) -> dict[str, float]:
        """Median import, validate and build times (ms), and setup_s (s)."""
        self.run_due(float("inf"))
        out = {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}
        out["setup_s"] = statistics.median(
            (s["import_ms"] + s["validate_ms"] + s["build_ms"]) / 1e3 for s in self.samples
        )
        return out


def run_blocks(workload, seconds: float, probes: SetupProbes, offset: float = 0.0, tracer=None) -> list:
    """Blocks until ``seconds`` have been spent in them (at least one).

    Set-up probes that are due run between blocks; ``offset`` is the block
    time spent in earlier segments of the run.
    """
    blocks = []
    busy = 0.0
    while not blocks or busy < seconds:
        probes.run_due(offset + busy)
        t0 = time.perf_counter()
        blocks.append(workload.block())
        if tracer is not None:
            tracer.fold()
        busy += time.perf_counter() - t0
    return blocks


def steps_per_s(blocks) -> float:
    """Steps completed per second of timed wall time, over the whole segment."""
    seconds = sum(b.seconds for b in blocks)
    return sum(b.steps for b in blocks) / seconds if seconds else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # One busy thread per process: no BLAS thread pools, and no log level
    # taken from the caller's environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ENVFORGE_LOG", None)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import envforge
    from spans import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    if Path(envforge.__file__).resolve().parent != ROOT / "src" / "envforge":
        print(f"error: imported envforge from {envforge.__file__}, not from this checkout", file=sys.stderr)
        return 2

    probes = SetupProbes(WORKLOADS[args.workload].env_config, args.seconds)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        if args.trace:
            untraced = run_blocks(workload, args.seconds * TRACE_UNTRACED_SHARE, probes)
            tracer = Tracer()
            tracer.install()
            traced = run_blocks(workload, args.seconds * (1 - TRACE_UNTRACED_SHARE), probes,
                                sum(b.seconds for b in untraced), tracer)
            tracer.uninstall()
            blocks = untraced + traced
        else:
            blocks = run_blocks(workload, args.seconds, probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = probes.medians()
        final = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    checks = blocks + ([final] if final else [])
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in checks)
    errors = [e for b in checks for e in b.errors]
    steps = sum(b.steps for b in blocks)
    out_bytes_per_step = sum(b.out_bytes for b in blocks) / steps if steps else 0.0
    correct = failed == 0 and attempted > 0

    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workload.inputs_sha256,
        "outputs_sha256": workload.outputs_sha256,
        "blocks": len(blocks),
        "steps": steps,
        "output_bytes_per_step": out_bytes_per_step,
        "error_rate": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  why: {workload.why}")
    print(f"  inputs sha256 {workload.inputs_sha256}  outputs sha256 {workload.outputs_sha256} (first block)")
    if args.trace == 0:
        metrics = {
            "steps_per_s": steps_per_s(blocks),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  steps_per_s           {metrics['steps_per_s']:.1f} steps/s  {steps} steps in {len(blocks)} blocks")
        print(f"  setup_s               {metrics['setup_s']:.4f} s        median of {SETUP_PROBES} fresh processes")
        print(f"  peak_rss_mb           {peak_rss_mb:.1f} MiB")
        print(f"  output_bytes_per_step {out_bytes_per_step:.1f} B/step")
        print(f"  error_rate            {report['error_rate']:g} ratio  ({failed} failed of {attempted} {workload.operations})")
        units = END_TO_END
    else:
        metrics, missing = tracer.layer_metrics(sum(b.steps for b in traced))
        metrics["cli.import_ms"] = setup["import_ms"]
        metrics["config.validate_ms"] = setup["validate_ms"]
        metrics["environment.build_ms"] = setup["build_ms"]
        metrics["output_bytes_per_step"] = out_bytes_per_step
        metrics["trace.untraced_steps_per_s"] = steps_per_s(untraced)
        metrics["trace.steps_per_s"] = steps_per_s(traced)
        metrics["trace.overhead"] = 1 - metrics["trace.steps_per_s"] / metrics["trace.untraced_steps_per_s"]
        dump = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_dump(dump)
        print(f"  traced {len(traced)} blocks after {len(untraced)} untraced; "
              f"{len(tracer.dump)} raw spans written to {dump.relative_to(ROOT)}")
        print(f"  {'metric':32} {'value':>12} {'unit':10} {'moves':36} mostly on")
        for name, (unit, moves, where) in LAYER_METRICS.items():
            flag = "  (not measured here)" if name in missing else ""
            print(f"  {name:32} {metrics[name]:12.4f} {unit:10} {moves:36} {where}{flag}")
        if args.workload == "docking_pipeline_w2":
            print("  only parent-side spans are available: rollouts, steps and to_lines run in the "
                  "pool workers, which are not traced")
        report["tracing_overhead"] = metrics["trace.overhead"]
        report["not_measured"] = missing
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    for line in errors[:20]:
        print(f"  FAILED: {line}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

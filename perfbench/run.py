"""Benchmark of the fwe-zeta verification pipeline.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the repository root.  A run is a closed loop of passes, one
after another and never two at once; each pass is a fresh interpreter
(perfbench/worker.py) that sends the workload's requests to
`fwezeta.cli.main` and checks every reply.

--trace 0 times set-up in several fresh interpreters, then repeats the
pass at least MIN_PASSES times and while the next one fits in --seconds,
and reports the medians.  --trace 1 alternates untraced and traced
passes (two each), reports the per-layer metrics, and fails if any count
differs between the two traced passes.  The last line of stdout is the
result as one JSON object; the environment, every pass and the spans go
to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SETUP_PROBES = 9
MIN_PASSES = 3
RUN_LIMIT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark itself could not produce a trustworthy result."""


def worker(options: list, deadline: float) -> dict:
    """Run one fresh-interpreter pass and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *options]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"pass exceeded the {RUN_LIMIT_S} s run limit: "
                             f"{' '.join(options)}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"pass exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, report: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {**report["env"], "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit, "seed": seed}


def median_wall(passes: list) -> float:
    return statistics.median(p["wall_s"] for p in passes)


def run_untraced(workload: str, seed: int, seconds: int, deadline: float):
    setups = [worker([], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(worker(["--workload", workload, "--seed", str(seed)], deadline))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    metrics = {
        "wall_s": median_wall(passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
    return passes, metrics, units


def run_traced(workload: str, seed: int, deadline: float):
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    for k in range(2):
        plain.append(worker(["--workload", workload, "--seed", str(seed)], deadline))
        spans = OUT / f"spans-{workload}-seed{seed}-pass{k}.json"
        traced.append(worker(["--workload", workload, "--seed", str(seed),
                              "--trace", "1", "--spans-out", str(spans)], deadline))
    first, second = (p["counts"] for p in traced)
    differ = {k: (first[k], second[k]) for k in spec.EXACT_COUNTS
              if first[k] != second[k]}
    if differ:
        raise BenchmarkError(f"counts differ between the two traced passes: {differ}")
    metrics = {}
    for name in spec.SPAN_NAMES:
        metrics[f"{name}.self_s"] = statistics.median(p["self_s"][name] for p in traced)
        metrics[f"{name}.calls"] = first[f"{name}.calls"]
    metrics["analysis.find_roots.iterations"] = first["analysis.find_roots.iterations"]
    metrics["analysis.find_roots.degree_sum"] = first["analysis.find_roots.degree_sum"]
    metrics["trace.unattributed_s"] = statistics.median(p["unattributed_s"] for p in traced)
    metrics["trace.overhead_frac"] = median_wall(traced) / median_wall(plain) - 1
    return plain + traced, metrics, dict(spec.PER_LAYER)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; prints the metric table and returns the result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        passes, metrics, units = run_traced(workload, seed, deadline)
    else:
        passes, metrics, units = run_untraced(workload, seed, seconds, deadline)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env = environment(seed, passes[0])
    print("env " + json.dumps(env))
    for f in failures[:10]:
        print(f"FAILED {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    print(f"{workload} trace={trace} passes={len(passes)} "
          f"failed_frac={len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({"workload": workload, "env": env, "passes": passes,
                                  "result": result}, indent=1), encoding="utf-8")
    return result


def write_manifest() -> Path:
    manifest = spec.manifest()
    for w in manifest["workloads"]:
        if len(w["why"]) > 200:
            raise BenchmarkError(f"why of {w['name']} exceeds 200 characters")
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)
    if args.write_manifest:
        print(f"wrote {write_manifest()}")
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not (ROOT / "src" / "fwezeta" / "cli.py").is_file():
        print(f"benchmark error: no fwezeta source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            correct = True
            for workload in spec.WORKLOADS:
                for trace in (0, 1):
                    correct &= run(workload, args.seed, args.seconds, trace)["correct"]
            return 0 if correct else 1
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

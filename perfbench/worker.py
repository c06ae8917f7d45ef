"""One pass of a workload in a fresh interpreter.

Run by perfbench/run.py, never by hand.  The pass times set-up (import
`fwezeta.cli` and load the golden table), writes the workload's input
files (untimed), then sends its requests one after another to
`fwezeta.cli.main` with stdout and stderr captured, checking each reply
before the next request.  It prints one JSON object with the timings,
the failures and, when traced, the per-span totals.

A fresh interpreter per pass keeps the package's lru caches cold, as in
a real CLI session.
"""
import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec
import workloads
from tracing import Tracer


def setup() -> float:
    """Seconds from before `import fwezeta.cli` to a loaded golden table."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fwezeta.cli
    from fwezeta.files import load_golden_table
    load_golden_table()
    seconds = time.perf_counter() - start
    package = Path(fwezeta.cli.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise SystemExit(f"imported fwezeta from {package}, not from {ROOT / 'src'}")
    return seconds


def send(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:          # argparse rejects a command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: str, seed: int, trace: bool, spans_out) -> dict:
    import fwezeta.cli as cli

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=work))
    try:
        requests = workloads.prepare(workload, directory, seed)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(spec.SPANS)
        failures = []
        start = time.perf_counter()
        for index, request in enumerate(requests):
            if tracer:
                tracer.request = index
            try:
                code, out, err = send(cli, request.argv)
                reason = request.check(code, out, err)
            except Exception as e:       # a crash counts as a failed request
                reason = f"{type(e).__name__}: {e}"
            if reason:
                failures.append({"argv": list(request.argv), "reason": reason})
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {"wall_s": wall, "attempted": len(requests), "failures": failures}
    if tracer:
        result["self_s"] = tracer.self_s
        result["counts"] = tracer.counts()
        result["unattributed_s"] = wall - tracer.top_level_seconds()
        if spans_out:
            Path(spans_out).write_text(json.dumps(tracer.records()), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    result = {"setup_s": setup()}
    if args.workload:
        result.update(run_pass(args.workload, args.seed, bool(args.trace),
                               args.spans_out))
    import mpmath
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                     "mpmath_backend": mpmath.libmp.BACKEND}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

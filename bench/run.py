"""specbounds benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload mc_small_d --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  The
last line of standard output is the JSON result; with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"

WORKLOAD_NAMES = ("mc_small_d", "mc_large_d", "verify_corpus")

# Fresh processes timed from spawn to "ready" (import, inputs, warm-up).
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
# The timed phase runs whole batches until --seconds have passed, and at
# least this many.
MIN_BATCHES = 3
TRACED_BATCHES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build and warm up, print 'ready <time>', exit (setup timing)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import specbounds from ./src, and only from there."""
    if not (SRC / "specbounds" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'specbounds'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import specbounds

    if Path(specbounds.__file__).resolve().parent != (SRC / "specbounds").resolve():
        sys.exit(f"error: imported specbounds from {specbounds.__file__}, not {SRC}")
    import workloads

    return workloads


class Runner:
    """Runs batches of calls, checks every output, and keeps the counts."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[str] | None = None

    def batch(self) -> list[float]:
        """Run every call once; return the time spent inside each call."""
        outcomes, elapsed = [], []
        for call in self.calls:
            started = time.perf_counter()
            try:
                outcome = call.run()
            except Exception as exc:  # a raising call is a failed call
                outcome = exc
            elapsed.append(time.perf_counter() - started)
            outcomes.append(outcome)
        digests = []
        for call, outcome in zip(self.calls, outcomes):
            self.attempted += 1
            if isinstance(outcome, Exception):
                canonical, problems = f"raised {type(outcome).__name__}", [
                    f"{call.label}: raised {type(outcome).__name__}: {outcome}"]
            else:
                try:
                    canonical, problems = call.check(outcome)
                except (KeyError, TypeError, ValueError) as exc:
                    canonical, problems = "malformed", [f"{call.label}: malformed output {exc!r}"]
            digest = hashlib.sha256(canonical.encode()).hexdigest()
            k = len(digests)
            if self.reference is not None and digest != self.reference[k]:
                problems = problems + [f"{call.label}: output differs from the warm-up run"]
            digests.append(digest)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        if self.reference is None:
            self.reference = digests
        return elapsed

    def timed(self, seconds: float, min_batches: int) -> list[list[float]]:
        batches = []
        started = time.perf_counter()
        while len(batches) < min_batches or time.perf_counter() - started < seconds:
            batches.append(self.batch())
        return batches

    def digest(self) -> str:
        return hashlib.sha256("".join(self.reference or []).encode()).hexdigest()[:16]


def setup_samples(args) -> tuple[list[float], list[str]]:
    """Time SETUP_SAMPLES fresh processes from spawn to 'ready'.

    The child prints its time.monotonic() when ready; on Linux that clock
    is shared by all processes.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times, problems = [], []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        try:
            child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                   timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append("setup: timed out")
            continue
        word, _, ready = child.stdout.strip().partition(" ")
        if child.returncode != 0 or word != "ready":
            problems.append(f"setup: exit {child.returncode}: {child.stderr.strip()[-300:]}")
            continue
        times.append(float(ready) - started)
    return times, problems


def context(workloads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cap = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    lines = {p.stem: p.read_text().count("\n")
             for p in sorted((SRC / "specbounds").glob("*.py"))}
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "max_threads": int(cap.group(1)) if cap else None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ},
        },
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def batch_wall(batches: list[list[float]]) -> float:
    """Each call's fastest time over the batches, summed over the batch.

    Other tenants of the machine slow the CPU by up to half for seconds
    at a time, so a median batch time drifts with their load; each call's
    fastest time tracks the program.
    """
    return sum(min(times) for times in zip(*batches))


def end_to_end(calls, batches, setups) -> dict:
    wall = batch_wall(batches)
    replicates = sum(c.replicates for c in calls)
    trials = sum(c.trials for c in calls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "replicates_per_s": (replicates / wall, "1/s"),
        "trials_per_s": (trials / wall, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(tracer, traced, batches) -> dict:
    per_batch = len(traced)
    metrics = {}
    summary = tracer.summarize()
    for name, row in summary.items():
        metrics[f"{name}.calls"] = (row["calls"] // per_batch, "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"] / per_batch, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / per_batch, "s")
    est_busy = sum(row["busy_s"] for name, row in summary.items()
                   if name.startswith("montecarlo.est_"))
    stream = summary["montecarlo.RandomStream.generator"]["busy_s"]
    metrics["montecarlo.stream_share"] = (stream / est_busy if est_busy else 0.0, "ratio")
    metrics["trace.overhead"] = (batch_wall(traced) / batch_wall(batches) - 1.0, "ratio")
    metrics["trace.coverage"] = (tracer.top_level_ns() * 1e-9 / sum(map(sum, traced)), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    build = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        Runner(build(args.seed)).batch()
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    imported = time.perf_counter() - PROCESS_T0
    setups, setup_problems = setup_samples(args)
    started = time.perf_counter()
    runner = Runner(build(args.seed))
    runner.batch()  # warm-up; its outputs are the determinism reference
    own_setup = imported + time.perf_counter() - started
    runner.attempted += SETUP_SAMPLES
    runner.failed += SETUP_SAMPLES - len(setups)
    runner.problems += setup_problems
    batches = runner.timed(args.seconds, MIN_BATCHES)

    info = {"workload": args.workload, "seed": args.seed, "digest": runner.digest(),
            "batches": len(batches), "context": context(workloads)}
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            traced = [runner.batch() for _ in range(TRACED_BATCHES)]
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, batches)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path, {**info, "batches": TRACED_BATCHES})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        self_times = [(metrics[k]["value"], k) for k in metrics if k.endswith(".self_s")]
        info["top_self_s"] = [[k, v] for v, k in sorted(self_times, reverse=True)[:8]]
    else:
        # If no fresh process got ready, this process's own set-up stands in.
        metrics = end_to_end(runner.calls, batches, setups or [own_setup])
        info["replicates_per_batch"] = sum(c.replicates for c in runner.calls)
        info["trials_per_batch"] = sum(c.trials for c in runner.calls)
    info["fail_frac"] = runner.failed / runner.attempted

    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

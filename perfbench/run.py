"""The repo benchmark: end-to-end and per-layer figures for one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``README.md`` in this directory):
``suite`` (cold ``repro suite --spm`` ops), ``matrix`` (``validate`` and
``hier`` ops), ``gen`` (fuzz-battery ops on generated programs) and
``warm`` (the suite ops served from a primed disk store).

The workload runs in a fresh single-threaded interpreter (``worker.py``)
whose environment is scrubbed of the test-suite debug switches and whose
artifact stores live in a private directory under ``.bench_work/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer table with ``--trace 1``. The line before
it records the environment the figures were taken in.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracing import ALL_LAYERS, EXACT_COUNTS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "matrix", "gen", "warm")
#: Environment switches that change what the program does: the first two
#: are the test suite's debug modes (``REPRO_CHECK_RANGES`` compiles
#: asserts into the specialized code); the store location is set here.
SCRUBBED = ("REPRO_VERIFY_IR", "REPRO_CHECK_RANGES", "REPRO_CACHE_DIR")
HASH_SEED = "0"
#: Set-up probes per run (after one unreported probe that compiles the
#: bytecode caches); the median is reported.
SETUP_PROBES = 9
#: Every child must have ended by then (the run must end within 180 s).
DEADLINE_S = 170.0


class BenchError(Exception):
    """A failure that must stop the run without printing a result."""


def worker_env(root: Path, work: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED and not key.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED=HASH_SEED,
        # Single-threaded: fan-out is out of scope on a small shared host.
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # Anything that falls back to a default store lands in the
        # private directory, never in ~/.cache/repro.
        XDG_CACHE_HOME=str(work / "xdg-cache"),
    )
    return env


class Run:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.env = worker_env(root, work)
        self.deadline = time.monotonic() + DEADLINE_S

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        return remaining

    def worker(self, *args: str) -> str:
        """Run ``worker.py`` to completion; its standard output."""
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[:2]} timed out") from None
        if done.returncode != 0:
            raise BenchError(f"worker {args[:2]} exited with "
                             f"{done.returncode}")
        return done.stdout

    def probe(self, workload: str) -> tuple[float, float]:
        """``(wall seconds from spawn to ready, import seconds)``."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--probe", workload],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise BenchError("set-up probe failed")
        return ready, json.loads(line)["import_s"]


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_op(samples: list, in_ref: bool) -> list[float]:
    """Each op's median time over the run's repetitions, in seconds:
    reference seconds (see ``calibrate.py``) or, without ``in_ref``,
    wall seconds."""
    times: dict[str, list[float]] = {}
    for key, ns, kernel_ns in samples:
        times.setdefault(key, []).append(
            calibrate.in_ref_ns(ns, kernel_ns) if in_ref else ns)
    return [statistics.median(ns) / 1e9 for ns in times.values()]


def end_to_end(raw: dict, setup: list[float]) -> dict:
    ref = per_op(raw["samples"], in_ref=True)
    return {
        # One pass over the op set at each op's median time.
        "ops_per_s": metric(len(ref) / sum(ref), "1/s"),
        "op_p50_ms": metric(statistics.median(ref) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw: dict, imports: list[float]) -> dict:
    """Mean self time per op for every layer, plus rates and counts.

    These are wall-clock figures; ``calib.kernel_ms`` gives the host
    speed they were taken at."""
    import_ms = statistics.median(imports) * 1e3
    ops = len(raw["traced"])
    self_ns, counts = raw["self_ns"], raw["counts"]
    out = {"cli.import_ms": metric(import_ms, "ms")}
    for layer in ALL_LAYERS:
        out[f"{layer}_ms"] = metric(self_ns.get(layer, 0) / ops / 1e6, "ms")

    def rate(count: str, layer: str) -> float:
        busy = self_ns.get(layer, 0) / 1e9
        return counts.get(count, 0) / busy if busy else 0.0

    out["sim.steps_per_s"] = metric(rate("sim.steps", "sim.exec"), "1/s")
    out["foray.accesses_per_s"] = metric(
        rate("foray.accesses", "foray.extract"), "1/s")
    out["cachesim.accesses_per_s"] = metric(
        rate("cachesim.accesses", "cachesim.sink"), "1/s")
    for name in EXACT_COUNTS:
        out[name] = metric(counts.get(name, 0) / ops, "count")
    out["store.bytes_written"] = metric(
        counts.get("store.bytes_written", 0) / ops, "B")
    out["store.bytes_read"] = metric(
        counts.get("store.bytes_read", 0) / ops, "B")
    gets = counts.get("store.hits", 0) + counts.get("store.misses", 0)
    out["store.hit_ratio"] = metric(
        counts.get("store.hits", 0) / gets if gets else 0.0, "ratio")
    untraced_ms = statistics.mean(ns for _k, ns, _c in raw["samples"]) / 1e6
    traced_ms = statistics.mean(ns for _k, ns, _c in raw["traced"]) / 1e6
    layers_ms = sum(self_ns.get(layer, 0) for layer in ALL_LAYERS) / ops / 1e6
    out["pipeline.residual_ms"] = metric(untraced_ms - layers_ms, "ms")
    out["trace.coverage"] = metric(layers_ms / untraced_ms, "ratio")
    out["trace.overhead_ms"] = metric(traced_ms - untraced_ms, "ms")
    # The host speed the wall-clock figures above were taken at.
    out["calib.kernel_ms"] = metric(statistics.median(
        kernel_ns for _k, _ns, kernel_ns in raw["samples"]) / 1e6, "ms")
    out["wall.op_p50_ms"] = metric(statistics.median(
        per_op(raw["samples"], in_ref=False)) * 1e3, "ms")
    return out


def environment(root: Path, raw: dict) -> dict:
    commit = "unknown"  # a checkout without git history has no commit
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, cwd=root).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "commit": commit,
            "code_fingerprint": raw.get("code_fingerprint"),
            "PYTHONHASHSEED": HASH_SEED, "jobs": 1,
            "passes": raw["passes"]}


def collect(root: Path, args) -> tuple[dict, list[tuple[float, float]]]:
    """The worker's raw figures and the set-up probes of one run."""
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(root, work)
        run.probe(args.workload)
        kernels = [calibrate.time_kernel()]
        probes = []
        for _ in range(SETUP_PROBES):
            ready, import_s = run.probe(args.workload)
            kernels.append(calibrate.time_kernel())
            # Spawn-to-ready in reference seconds, like the op times.
            probes.append((calibrate.in_ref_ns(
                ready, (kernels[-2] + kernels[-1]) / 2), import_s))
        if args.workload == "warm":
            run.worker("--prime", str(work / "warm-store"))
        raw = last_json(run.worker(
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return raw, probes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    try:
        raw, probes = collect(root, args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    for failure in raw["failures"]:
        print(f"perfbench: failed op {failure}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(raw, [imp for _ready, imp in probes])
    else:
        metrics = end_to_end(raw, [ready for ready, _imp in probes])
    print(json.dumps({"environment": environment(root, raw)}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workload process: runs one workload's ops and reports raw figures.

``run.py`` starts this script in a fresh single-threaded interpreter with
a scrubbed environment, in one of three modes:

``--probe WORKLOAD``
    Import ``repro.cli``, resolve the workload's programs, print one
    ``ready`` line and exit. ``run.py`` times it from the outside as the
    set-up time.
``--prime DIR``
    Run one pass of the ``suite`` ops against the store at ``DIR``, so
    the ``warm`` workload finds every artifact there.
``--workload NAME`` (measure)
    Run whole passes of the workload's ops for about ``--seconds``,
    check each op's output, and print one JSON object of raw figures.
    With ``--trace 1``, an untraced phase is followed by a traced one
    that times each layer from outside (see ``tracing.py``).

Only the standard library is imported before the probe's timer starts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent


def probe(workload: str) -> None:
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI's import graph is the set-up)

    imported = time.perf_counter()
    if workload == "gen":
        from repro.gen.profiles import get_profile

        get_profile("small")
    else:
        from repro.workloads.registry import get_workload, workload_names

        for name in workload_names():
            get_workload(name).source
    print(json.dumps({"ready": True, "import_s": imported - start}),
          flush=True)


def prime(store_dir: str) -> None:
    import ops

    for op in ops.ops_for("suite", store_dir):
        ops.drop_memos()
        op.run()


class Runner:
    """Runs passes over a workload's ops and checks every output."""

    def __init__(self, workload: str, seed: int, work: str,
                 expected: dict[str, str]):
        import ops

        self.ops = ops
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes = 0

    def _store(self, label: str) -> str:
        # suite: a fresh, empty disk store per pass, so store writes are
        # part of the cold op, as in `repro suite --spm` on a new machine.
        if self.workload == "suite":
            return os.path.join(self.work, f"store-{label}")
        return os.path.join(self.work, "warm-store")

    def warm_up(self) -> None:
        """One untimed op: lazy imports and one-time memos (the store's
        code fingerprint) are set-up, not op cost."""
        self.ops.drop_memos()
        self.ops.ops_for(self.workload, self._store("warm-up"))[-1].run()

    def _pass_ops(self) -> list:
        order = self.ops.ops_for(self.workload, self._store(str(self.passes)))
        self.rng.shuffle(order)
        return order

    def _check(self, key: str, output: object) -> bool:
        if self.workload == "gen":
            return True  # gen_op raises unless the battery passed
        return self.ops.digest(output) == self.expected.get(key)

    def run_pass(self, recorder=None) -> tuple[list[tuple], float]:
        """One pass: ``([(key, op_ns, kernel_ns), ...], pass wall s)``,
        where ``kernel_ns`` is the mean time of the calibration kernel
        runs on either side of the op (see ``calibrate.py``)."""
        order = self._pass_ops()
        samples = []
        start = time.perf_counter()
        kernel_ns = calibrate.time_kernel()
        for op in order:
            self.ops.drop_memos()
            # Start every op from an empty young generation, so a
            # collection the previous op left pending is not timed here.
            gc.collect()
            before = recorder.counts() if recorder else None
            t0 = time.perf_counter_ns()
            try:
                output = op.run()
                ok = True
            except Exception:
                ok = False
                self.failures.append(f"{op.key}: "
                                     f"{traceback.format_exc(limit=3)}")
            elapsed = time.perf_counter_ns() - t0
            after_ns = calibrate.time_kernel()
            if recorder:
                recorder.record(op.key, before)
            self.attempted += 1
            if not (ok and self._check(op.key, output)):
                self.failed += 1
                if ok:
                    self.failures.append(f"{op.key}: output digest differs "
                                         "from the reference")
            samples.append((op.key, elapsed, (kernel_ns + after_ns) / 2))
            kernel_ns = after_ns
        wall = time.perf_counter() - start
        if self.workload == "suite":
            shutil.rmtree(self._store(str(self.passes)), ignore_errors=True)
        self.passes += 1
        return samples, wall

    def run_for(self, budget_s: float, min_passes: int, recorder=None):
        """Whole passes until the next one would overrun ``budget_s``."""
        samples: list[tuple] = []
        walls: list[float] = []
        start = time.perf_counter()
        while True:
            pass_samples, wall = self.run_pass(recorder)
            samples += pass_samples
            walls.append(wall)
            elapsed = time.perf_counter() - start
            if len(walls) >= min_passes and elapsed + wall > budget_s:
                return samples, walls


class CountRecorder:
    """Per-op deltas of exact counts, for the determinism check: the same
    op must produce the same counts on every pass."""

    def __init__(self, counts):
        self.counts = counts
        self.per_op: dict[str, set[tuple[int, ...]]] = {}

    def record(self, key: str, before: tuple[int, ...]) -> None:
        delta = tuple(a - b for a, b in zip(self.counts(), before))
        self.per_op.setdefault(key, set()).add(delta)

    def mismatches(self) -> list[str]:
        return [f"{key}: {sorted(seen)}"
                for key, seen in sorted(self.per_op.items()) if len(seen) > 1]


def measure(args) -> int:
    import tracing

    reference = json.loads((HERE / "reference.json").read_text())
    # Engine runs and steps, counted in every run (traced or not): they
    # feed the count determinism check and the warm zero-run check.
    engine = {"runs": 0, "steps": 0}
    tracing.count_engine(engine)
    runner = Runner(args.workload, args.seed, args.work,
                    reference.get("digests", {}))
    runner.warm_up()

    budget = args.seconds / 2 if args.trace else args.seconds
    recorders = [CountRecorder(lambda: (engine["runs"], engine["steps"]))]
    samples, walls = runner.run_for(budget, min_passes=2,
                                    recorder=recorders[0])
    result: dict = {"samples": samples, "passes": len(walls)}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        recorders.append(CountRecorder(lambda: tuple(
            tracer.counts.get(name, 0) for name in tracing.EXACT_COUNTS)))
        traced, _walls = runner.run_for(budget, min_passes=2,
                                        recorder=recorders[1])
        result.update(traced=traced, self_ns=dict(tracer.self_ns),
                      counts=dict(tracer.counts))
    mismatches = [line for recorder in recorders
                  for line in recorder.mismatches()]
    if mismatches:
        print("perfbench: exact counts differ between passes of the "
              "same op:\n  " + "\n  ".join(mismatches), file=sys.stderr)
        return 3
    if args.workload == "warm" and engine["runs"]:
        print(f"perfbench: the warm workload ran the engine "
              f"{engine['runs']} times; its store was not used",
              file=sys.stderr)
        return 3
    from repro.store import code_fingerprint

    result.update(
        attempted=runner.attempted, failed=runner.failed,
        failures=runner.failures[:5],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        code_fingerprint=code_fingerprint())
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", metavar="WORKLOAD")
    parser.add_argument("--prime", metavar="DIR")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="private scratch directory")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if args.prime:
        prime(args.prime)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

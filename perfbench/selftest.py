"""Self-tests of the benchmark itself (not part of the repo's test suite).

Usage, from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py

Checks that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit, by
  every workload (end-to-end metrics with ``--trace 0``, per-layer ones
  with ``--trace 1``), and every op of the seed commit passes;
* a corrupted expected digest fails every op of the workload;
* ``warm`` reads every artifact from the store (``store.hit_ratio`` is
  1.0) and runs the engine for zero steps;
* in a directory holding only ``BENCHMARK.json`` and this directory,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "2"


def bench(*args: str, cwd: Path | None = None,
          bench_dir: Path = HERE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--seed", "1",
         "--seconds", SECONDS, *args],
        cwd=cwd or Path.cwd(), capture_output=True, text=True, timeout=180)


def result(*args: str, bench_dir: Path = HERE) -> dict:
    done = bench(*args, bench_dir=bench_dir)
    if done.returncode != 0:
        raise AssertionError(f"{args} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in wanted.items():
            out = result("--workload", workload, "--trace", str(trace))
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            check(got == names, f"{workload} --trace {trace} emits every "
                                "declared metric with its unit")
            check(out["correct"] and out["failed"] == 0
                  and out["attempted"] > 0,
                  f"{workload} --trace {trace}: all "
                  f"{out['attempted']} ops pass")
            if trace:
                traced[workload] = out["metrics"]

    check(traced["warm"]["store.hit_ratio"]["value"] == 1.0,
          "warm reads every artifact from the store")
    check(traced["warm"]["sim.steps"]["value"] == 0
          and traced["warm"]["sim.exec_ms"]["value"] == 0,
          "warm runs the engine for zero steps")

    scratch = Path(".bench_work") / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        # A copy of this directory whose expected digests are all wrong.
        corrupted = scratch / HERE.name
        shutil.copytree(HERE, corrupted,
                        ignore=shutil.ignore_patterns("__pycache__"))
        reference = json.loads((HERE / "reference.json").read_text())
        reference["digests"] = {key: "0" * 64
                                for key in reference["digests"]}
        (corrupted / "reference.json").write_text(json.dumps(reference))
        for workload in ("suite", "matrix"):
            out = result("--workload", workload, "--trace", "0",
                         bench_dir=corrupted.resolve())
            check(out["failed"] == out["attempted"] and not out["correct"],
                  f"{workload}: corrupted digests fail all "
                  f"{out['attempted']} ops (failed ratio 1)")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "suite", "--trace", "0", cwd=bare)
        check(done.returncode != 0 and not done.stdout.strip(),
              "without the program, exits non-zero and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's operations: one public pipeline call on one program.

Every workload is a fixed list of :class:`Op`\\ s. The ``--seed``
argument only permutes the order they run in, so runs with different
seeds do the same work and their figures are comparable.

Each op returns a *canonical output*: the ``repro.analysis.jsonout`` rows
the CLI's ``--json`` mode prints for the same call, or ``None`` for a
``gen`` op, whose correctness is the program's own check battery. The
canonical output is dumped with sorted keys and hashed; the expected
digests in ``reference.json`` were produced by the same ops on the AST
reference tree-walker (``make_reference.py``), not on the fast path the
benchmark times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable

from repro.analysis import jsonout
from repro.cachesim.model import CacheConfig
from repro.pipeline import (
    HierarchyConfig,
    PipelineConfig,
    SpmConfig,
    cached_exploration,
    clear_caches,
    hier_suite,
    run_workload,
    validate_workload,
)
from repro.workloads import registry
from repro.workloads.registry import get_workload, workload_names

#: The fuzz profile and the fixed population of ``gen`` seeds. The
#: population is fixed (the run seed only shuffles it) because program
#: cost varies ~5x between generated programs: a population that moved
#: with the seed would move the median op latency by ~30% between runs.
GEN_PROFILE = "small"
GEN_SEEDS = tuple(range(12))

#: The ``matrix`` programs: the two whose validate + hier ops fit a
#: ~1.5 s pass (the other five take ~16 s), so a run repeats every op
#: often enough for its median time to settle.
MATRIX_PROGRAMS = ("adpcm", "mpeg2")

#: The one extra cache configuration the ``matrix`` hierarchy op sweeps
#: next to the default ``CacheConfig()`` (32 B lines, 64 sets, 2 ways).
MATRIX_SWEEP = CacheConfig(line_bytes=16, sets=16, ways=1)


@dataclass(frozen=True)
class Op:
    """One timed operation. ``key`` names it in ``reference.json``."""

    key: str
    run: Callable[[], object]


def drop_memos() -> None:
    """Forget every in-process artifact, so no op is served from memory.

    ``clear_caches()`` also drops the validation profile-model memo; the
    registry's memo of generated ``gen:`` workloads is dropped too, so a
    repeated ``gen`` op rebuilds its program like the first one did.
    """
    clear_caches()
    generated = getattr(registry, "_GENERATED", None)
    if generated is not None:
        generated.clear()


def suite_config(store_dir: str, engine: str = "bytecode") -> PipelineConfig:
    """``repro suite --spm`` against the disk store at ``store_dir``."""
    return PipelineConfig(engine=engine, jobs=1, cache=True,
                          cache_dir=store_dir, spm=SpmConfig(sweep=True))


def suite_op(name: str, config: PipelineConfig) -> dict:
    """One ``repro suite --spm`` row: Tables I-III plus the SPM sweep."""
    workload = get_workload(name)
    report = run_workload(name, workload.source, config=config)
    points = cached_exploration(report.extraction.compiled.source, config,
                                report.model)
    return {
        "table1": jsonout.census_row(report.census),
        "table2": jsonout.coverage_row(report.table2),
        "table3": jsonout.behavior_row(report.table3),
        "spm_sweep": [jsonout.exploration_row(p) for p in points],
    }


def validate_op(name: str, config: PipelineConfig) -> dict:
    """``repro validate NAME``: the full scenario matrix of one program."""
    return jsonout.validation_row(validate_workload(name, config=config), 0.0)


def hier_op(name: str, config: PipelineConfig) -> list:
    """``repro hier NAME --sweep 16x16x1``: default cache plus one more."""
    hier = replace(config, hierarchy=HierarchyConfig(
        enabled=True, sweep=(MATRIX_SWEEP,)))
    return [jsonout.hier_row(r) for r in hier_suite((name,), config=hier)]


def gen_op(seed: int, config: PipelineConfig) -> None:
    """``repro gen`` on one program; raises unless every check passes."""
    from repro.gen.fuzz import fuzz_program

    outcome = fuzz_program(GEN_PROFILE, seed, config=config)
    if outcome.status != "pass":
        raise AssertionError(
            f"gen:{GEN_PROFILE}:{seed} {outcome.status}: "
            f"{outcome.failing_check or outcome.error}")


def digest(output: object) -> str:
    """SHA-256 of the canonical output, dumped with sorted keys."""
    blob = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def ops_for(workload: str, store_dir: str | None = None,
            engine: str = "bytecode") -> list[Op]:
    """The fixed op list of one workload, in reference order."""
    if workload in ("suite", "warm"):
        config = suite_config(store_dir or "", engine)
        return [Op(f"suite:{name}",
                   lambda name=name: suite_op(name, config))
                for name in workload_names()]
    # Caches off: every matrix and gen op simulates everything it needs.
    config = PipelineConfig(engine=engine, jobs=1, cache=False)
    if workload == "matrix":
        return ([Op(f"validate:{name}",
                    lambda name=name: validate_op(name, config))
                 for name in MATRIX_PROGRAMS]
                + [Op(f"hier:{name}", lambda name=name: hier_op(name, config))
                   for name in MATRIX_PROGRAMS])
    if workload == "gen":
        return [Op(f"gen:{GEN_PROFILE}:{seed}",
                   lambda seed=seed: gen_op(seed, config))
                for seed in GEN_SEEDS]
    raise KeyError(f"unknown workload {workload!r}")

"""Seeded MiniC program generation: populations, not anecdotes.

Design note
===========

The suite's verification tower — fused-VM/AST parity, the IR verifier,
the static-vs-dynamic FORAY oracle, the MiniC linter, the SPM allocator
invariants — was only ever exercised on seven hand-written workloads.
This package turns each of those invariants into a population-scale
differential-testing result, in the same shape compiler fuzzers like
Csmith use: generate random-but-valid programs, run every
implementation we have, and demand they agree.

The subsystem is four small passes with one rule each:

``profiles``
    A :class:`~repro.gen.profiles.GenProfile` bounds every grammar
    dimension (nest depth, trip/stride ranges, affine coefficient and
    constant ranges, array/helper counts, statement mix probabilities,
    access budget). A (profile, seed) pair names one program:
    ``gen:<profile>:<seed>``.

``build``
    The grammar-directed builder draws every choice from one explicit
    ``random.Random`` seeded with the (generator version, profile,
    seed) string — never from set/dict iteration order or ``hash()`` —
    so generation is byte-deterministic across interpreter versions.
    It emits a tiny statement IR, not text, and enforces the semantic
    invariants textual generators struggle with: indices are affine in
    the enclosing iterators only (never data), branch conditions read
    the seeded input ensemble (never constant), stores to array *k*
    only load arrays *< k* (a DAG, so no value recurrence can overflow
    doubles or blow up bigints), and division/modulo only ever see
    positive constants.

``render``
    The validity pass. Every affine index is interval-evaluated over
    its exact iteration box and each array is sized to ``max index +
    1``, so a rendered program cannot fault on any scenario by
    construction. Emission produces a ``source_template`` whose single
    ``${reps}`` parameter drives three input scenarios (nominal,
    alternative distribution, short run), packaged as a registry-
    compatible Workload. Uncalled helpers and untouched arrays are
    dropped here, which is what makes the shrinker a pure deleter.

``shrink``
    Subtree deletion to a fixpoint: drop one statement at a time,
    re-render, and keep the deletion iff the failing check still
    fails. Replayable from (seed, profile) alone.

``fuzz``
    The differential harness: fans (profile, seed) cells through the
    pipeline's process pool and runs the check battery per program —
    engine parity (specialized fast path vs AST oracle), IR
    verification, static-oracle agreement, lint triage, allocator
    dominance (DP >= both greedies), replay traffic drop == prediction,
    and cross-input model transfer.

The generator version (:data:`~repro.gen.profiles.GENERATOR_VERSION`)
is stamped into every emitted source header, and the pipeline keys
every node on the source text it derives from (the compile node on the
text itself, the fuzz outcome on the source template), so keys roll
over automatically when the generator changes: warm fuzz reruns skip
satisfied cells but can never serve artifacts from an older generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.gen.build import GenError, GenProgram, build_ir, gen_name
    from repro.gen.profiles import (
        GENERATOR_VERSION,
        PROFILES,
        GenProfile,
        get_profile,
    )
    from repro.gen.render import RenderedProgram, render_ir

__all__ = [
    "GENERATOR_VERSION",
    "PROFILES",
    "GenError",
    "GenProfile",
    "GenProgram",
    "RenderedProgram",
    "build_ir",
    "gen_name",
    "generate_program",
    "get_profile",
    "parse_gen_spec",
    "render_ir",
]

__getattr__, __dir__ = attach(__name__, {
    "build": ("GenError", "GenProgram", "build_ir", "gen_name"),
    "profiles": ("GENERATOR_VERSION", "PROFILES", "GenProfile",
                 "get_profile"),
    "render": ("RenderedProgram", "render_ir"),
})


def generate_program(seed: int, profile: str = "small") -> RenderedProgram:
    """Deterministically generate ``gen:<profile>:<seed>``."""
    from repro.gen.build import build_ir
    from repro.gen.profiles import get_profile
    from repro.gen.render import render_ir

    prof = get_profile(profile)
    return render_ir(build_ir(seed, prof), prof)


def parse_gen_spec(name: str) -> tuple[str, int]:
    """Split a ``gen:<profile>:<seed>`` spec into (profile, seed).

    Raises ``ValueError`` with a usage hint on malformed specs and
    ``KeyError`` (from :func:`get_profile`) on unknown profiles.
    """
    from repro.gen.profiles import get_profile

    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "gen" or not parts[1]:
        raise ValueError(
            f"malformed generated-workload spec {name!r}; expected "
            "gen:<profile>:<seed>, e.g. gen:small:42")
    get_profile(parts[1])  # helpful KeyError on unknown profiles
    try:
        seed = int(parts[2])
    except ValueError:
        raise ValueError(
            f"malformed generated-workload spec {name!r}: seed "
            f"{parts[2]!r} is not an integer") from None
    return parts[1], seed

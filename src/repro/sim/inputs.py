"""Parameterized input generation for the simulated "file" input.

The paper's benchmarks stage their inputs through C library reads; our
stand-in is the ``read_samples`` builtin, which fills a buffer with
deterministic 32-bit samples through traced library stores. Historically
the sample stream was a single hard-coded LCG — every workload profiled
exactly one input, so the paper's open question (how dependent is the
extracted model on the profiling input?) was never exercised.

:class:`InputSpec` makes the stream a run parameter: a seeded generator
with a named value *distribution* and shape knobs. Workloads declare
input *scenarios* (see :mod:`repro.workloads.base`) built from these
specs, and the validation pipeline stage replays every scenario's trace
against the model extracted from the profiling scenario.

The default spec reproduces the legacy stream bit-for-bit, so existing
traces, models and table metrics are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

#: glibc-style LCG constants (same generator the rand() builtin uses).
_LCG_MULTIPLIER = 1103515245
_LCG_INCREMENT = 12345
_LCG_MASK = 0x7FFFFFFF

#: Seed of the legacy hard-coded stream (kept as the default).
DEFAULT_SEED = 20050307

#: Recognized value distributions.
DISTRIBUTIONS = ("uniform", "constant", "ramp", "impulse", "walk")


@dataclass(frozen=True)
class InputSpec:
    """One deterministic input ensemble for ``read_samples``.

    * ``uniform`` — LCG white noise in ``[-amplitude/2, amplitude/2)``
      (the legacy stream when ``seed``/``amplitude`` keep their defaults);
    * ``constant`` — every sample equals ``amplitude`` (0 = silence);
    * ``ramp`` — a sawtooth sweep of period ``period`` spanning the
      amplitude range (slowly-varying, highly correlated input);
    * ``impulse`` — zero except one ``amplitude`` spike every ``period``
      samples (edge-shaped input);
    * ``walk`` — a seeded random walk clipped to ``±amplitude/2``
      (speech-like low-frequency content).
    """

    seed: int = DEFAULT_SEED
    distribution: str = "uniform"
    amplitude: int = 1024
    period: int = 64

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown input distribution {self.distribution!r}; "
                f"choose from {DISTRIBUTIONS}"
            )


class InputStream:
    """Stateful sample generator for one run; owned by the engine.

    ``read_samples`` pulls from this stream, so consecutive calls continue
    the same sequence (as consecutive reads of one input file would).
    """

    __slots__ = ("spec", "_state", "_index", "_level")

    def __init__(self, spec: InputSpec | None = None):
        self.spec = spec or InputSpec()
        self._state = self.spec.seed & _LCG_MASK
        self._index = 0
        self._level = 0

    def next_sample(self) -> int:
        """The next 32-bit sample of the ensemble."""
        return self.samples(1)[0]

    def samples(self, count: int) -> list[int]:
        """The next ``count`` samples, as ``count`` :meth:`next_sample`
        calls would return them (none for ``count <= 0``)."""
        if count <= 0:
            return []
        spec = self.spec
        index = self._index
        self._index = index + count
        distribution = spec.distribution
        if distribution == "constant":
            return [spec.amplitude] * count
        if distribution == "ramp":
            period = max(2, spec.period)
            amplitude = spec.amplitude
            half = amplitude // 2
            return [i % period * amplitude // (period - 1) - half
                    for i in range(index, index + count)]
        if distribution == "impulse":
            period = max(1, spec.period)
            return [spec.amplitude if i % period == 0 else 0
                    for i in range(index, index + count)]
        out: list[int] = []
        append = out.append
        state = self._state
        if distribution == "uniform":
            amplitude = max(1, spec.amplitude)
            half = amplitude // 2
            for _ in range(count):
                state = (state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
                append((state >> 8) % amplitude - half)
        else:  # walk
            half = max(1, abs(spec.amplitude) // 2)
            level = self._level
            for _ in range(count):
                state = (state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
                level += (state >> 8) % 65 - 32
                if level > half:
                    level = half
                elif level < -half:
                    level = -half
                append(level)
            self._level = level
        self._state = state
        return out

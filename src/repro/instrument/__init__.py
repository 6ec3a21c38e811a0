"""Source instrumentation passes (step 1 of the paper's Algorithm 1)."""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.instrument.checkpoints import CheckpointAnnotator, instrument

__all__ = ["CheckpointAnnotator", "instrument"]

__getattr__, __dir__ = attach(__name__, {
    "checkpoints": ("CheckpointAnnotator", "instrument"),
})

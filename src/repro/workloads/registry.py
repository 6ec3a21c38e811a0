"""Registry of all workloads: the mini-MiBench programs (the paper's
six plus the MediaBench-style mpeg2), the paper's figure examples, and
the ``gen:`` namespace of seeded generated programs.

A ``gen:<profile>:<seed>`` name is not a table entry — it is a *recipe*:
the workload is generated on first lookup (deterministically, see
:mod:`repro.gen`) and memoized for the process lifetime. That makes the
generated population addressable by every front end that resolves
workloads by name (``suite``, ``validate``, ``hier``, ``static``)
without enumerating it anywhere.
"""

from __future__ import annotations

from repro.workloads import (
    mini_adpcm,
    mini_fft,
    mini_gsm,
    mini_jpeg,
    mini_lame,
    mini_mpeg2,
    mini_susan,
)
from repro.workloads.base import Workload
from repro.workloads.figures import ALL_FIGURES

#: The evaluation suite: the paper's six (in the paper's table order)
#: plus the MediaBench-style mpeg2 addition.
MIBENCH_WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        mini_jpeg.WORKLOAD,
        mini_lame.WORKLOAD,
        mini_susan.WORKLOAD,
        mini_fft.WORKLOAD,
        mini_gsm.WORKLOAD,
        mini_adpcm.WORKLOAD,
        mini_mpeg2.WORKLOAD,
    )
}

#: The figure examples, addressable by name too.
FIGURE_WORKLOADS: dict[str, Workload] = {fig.name: fig for fig in ALL_FIGURES}

ALL_WORKLOADS: dict[str, Workload] = {**MIBENCH_WORKLOADS, **FIGURE_WORKLOADS}

#: Process-lifetime memo of generated workloads (generation is
#: deterministic, so memoization is purely a speed matter).
_GENERATED: dict[str, Workload] = {}


def workload_names() -> tuple[str, ...]:
    """Names of the mini-MiBench suite, in paper order."""
    return tuple(MIBENCH_WORKLOADS)


def _unknown_name_error(name: str) -> KeyError:
    import difflib

    known = sorted(ALL_WORKLOADS)
    close = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    return KeyError(
        f"unknown workload {name!r}{hint} (known: {', '.join(known)}; "
        "generated programs are addressed as gen:<profile>:<seed>, "
        "e.g. gen:small:42)")


def get_workload(name: str) -> Workload:
    """Resolve a workload name, generating ``gen:`` specs on demand.

    Unknown names raise a ``KeyError`` that lists near-miss suggestions
    and the full known set; malformed or unknown-profile ``gen:`` specs
    raise with a usage hint rather than a bare lookup failure.
    """
    found = ALL_WORKLOADS.get(name)
    if found is not None:
        return found
    cached = _GENERATED.get(name)
    if cached is not None:
        return cached
    if name.startswith("gen:") or name == "gen":
        from repro.gen import generate_program, parse_gen_spec

        try:
            profile, seed = parse_gen_spec(name)
        except (ValueError, KeyError) as error:
            message = error.args[0] if error.args else str(error)
            raise KeyError(message) from None
        workload = generate_program(seed, profile).workload
        _GENERATED[name] = workload
        return workload
    raise _unknown_name_error(name)

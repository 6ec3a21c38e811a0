"""Top-level FORAY-GEN pipeline — the public API most users want.

The flow is a graph of memoized artifacts (nodes)::

    compile ──▶ extraction ─┬─▶ exploration      (SPM capacity sweep)
                            ├─▶ validation cell  (one scenario replayed)
                            ├─▶ hierarchy cell   (one cache config)
                            └─▶ fuzz outcome     (repro.gen.fuzz)

* **compile** — parse, semantic analysis and checkpoint annotation
  (paper Algorithm 1, step 1) of one source text;
* **extraction** — run the program on the selected engine with the
  FORAY extractor attached as a live trace sink (the paper's
  constant-space online mode), then finalize and purge the model
  (steps 2–4);
* **exploration** — the SPM capacity sweep of one model;
* **validation cell** — one input scenario's trace replayed against the
  model extracted on the profile scenario (cross-input stability);
* **hierarchy cell** — cache co-simulation, pure cache vs SPM+cache, of
  one cache configuration over streaming
  :class:`~repro.cachesim.sink.CacheSink`\\ s;
* **fuzz outcome** — the differential check battery on one generated
  program.

The entry points are plain compositions of nodes:

* :func:`extract_foray_model` — the extraction node. It is the only
  producer of a FORAY model: validation, the static oracle and the fuzz
  battery all take their model from it.
* :func:`run_workload` — Tables I–III and the static baseline for one
  workload, read off its compile and extraction nodes.
* :func:`run_suite` — the full mini-MiBench evaluation (Tables I–III),
  fanned out over ``PipelineConfig.jobs`` worker processes.
* :func:`full_flow` — the paper's design flow, Phases I+II: the report
  plus the Phase II allocation, the transformed model, the reuse graph
  and, under ``SpmConfig.sweep``, the capacity sweep.
* :func:`static_workload` / :func:`static_suite` — the compile-time
  model of :mod:`repro.staticfar` diffed against the extracted one by
  the differential oracle, per ``(workload × scenario)`` cell.
* :func:`validate_workload` / :func:`validate_suite` — the cross-input
  scenario matrix: each workload's model is extracted once, on its
  profile scenario, and every ``(workload × scenario)`` cell replays one
  scenario's trace against it.
* :func:`hier_suite` — the ``(workload × scenario × cache-config)``
  hierarchy matrix; a cell's uncached configurations share one engine
  run.

Every matrix fans out over ``PipelineConfig.jobs`` worker processes
one call per workload, as :func:`run_suite` does: a workload's cells
run in one process, so each program is compiled once per run. Every
setting comes from the one :class:`PipelineConfig` an entry point
takes.

Every node goes through one memo (:class:`_Node`): the kind's bounded
in-process LRU, then — when ``PipelineConfig.cache_dir`` is set — the
kind's namespace of the disk-backed :class:`~repro.store.ArtifactStore`
shared across processes; a miss produces the artifact and publishes it
to both. A node's key is :func:`_content_key` over exactly what its
producer receives, so no tier can serve an artifact across a config
change. ``cache=False`` / ``--no-cache`` drops the disk tier and
memoizes no simulated artifact; compile nodes, a pure function of the
source text, stay shared within the process until :func:`clear_caches`.

A producer imports the modules it runs when it runs, so a run served
from the memo never loads the parser, the engines, the extractor or the
static analyzer: the modules imported here hold only what such a run
reads (configs, the stored artifacts' classes and the tables).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.analysis.census import LoopCensus, loop_census
from repro.analysis.coverage import (
    ForayFormCoverage,
    MemoryBehavior,
    table2_coverage,
    table3_behavior,
)
from repro.cachesim.config import CacheConfig
from repro.foray.filters import FilterConfig
from repro.foray.model import ForayModel
from repro.sim.inputs import InputSpec
from repro.sim.machine import (
    DEFAULT_ENGINE,
    DEFAULT_TRACE_BLOCK,
    CompiledProgram,
    EngineConfig,
    RunResult,
    compile_program,
    run_compiled,
)
from repro.spm.allocator import Allocation, AllocatorPolicy, allocate_graph
from repro.spm.energy import EnergyModel
from repro.spm.explore import (
    DEFAULT_CAPACITIES,
    ExplorationPoint,
    explore,
)
from repro.store import (
    ArtifactStore,
    open_store,
    reset_store_counters,
    take_store_counters,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cachesim.report import HierarchyReport
    from repro.foray.validate import ValidationReport, WorkloadValidation
    from repro.lang.lint import Finding
    from repro.spm.graph import ReuseGraph
    from repro.staticfar.detector import StaticAnalysisResult
    from repro.staticfar.model import StaticForayModel
    from repro.staticfar.oracle import OracleReport

DEFAULT_MAX_STEPS = 200_000_000


@dataclass(frozen=True)
class SpmConfig:
    """Phase II knobs: capacity, allocator policy, energy overrides."""

    #: SPM capacity of ``full_flow``'s allocation and of the hierarchy
    #: cells' SPM+cache runs.
    spm_bytes: int = 4096
    #: Capacity ladder swept when ``sweep`` is enabled.
    capacities: tuple[int, ...] = DEFAULT_CAPACITIES
    #: Allocator policy name (see :class:`AllocatorPolicy`).
    allocator: str = AllocatorPolicy.DP.value
    #: Per-access energy numbers (override to model other technologies).
    energy: EnergyModel = EnergyModel()
    #: Run the capacity sweep in ``full_flow`` (an exploration node).
    sweep: bool = False


@dataclass(frozen=True)
class ValidationConfig:
    """Scenario-matrix knobs for cross-input validation.

    Validation replays every scenario the workload declares, up to
    ``max_scenarios``; ``profile=None`` extracts the model on the
    workload's first (nominal) scenario. ``threshold`` is the minimum
    acceptable cross-input overall accuracy gated by
    ``WorkloadValidation.passes`` (the CLI exit code).
    """

    profile: str | None = None
    #: Truncate the scenario set to its first N entries (CLI --scenarios).
    max_scenarios: int | None = None
    threshold: float = 0.0


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache-hierarchy co-simulation knobs for the hierarchy cells.

    ``sweep`` adds extra cache configurations to every matrix cell (the
    cache-config axis of the (workload x scenario x cache-config)
    evaluation matrix); ``max_scenarios`` widens the scenario axis to a
    workload's first N declared input scenarios (default: the nominal
    profiling scenario only).
    """

    #: Read by nothing: ``hier_suite`` runs its matrix whatever this
    #: holds. Kept only because ``perfbench/ops.py`` constructs it.
    enabled: bool = False
    cache: CacheConfig = CacheConfig()
    sweep: tuple[CacheConfig, ...] = ()
    max_scenarios: int | None = None

    def __post_init__(self) -> None:
        if self.max_scenarios is not None and self.max_scenarios < 1:
            raise ValueError(
                "hierarchy max_scenarios must be >= 1 (None = nominal "
                f"scenario only), got {self.max_scenarios}"
            )

    def configs(self) -> tuple[CacheConfig, ...]:
        """The cache configurations one cell sweeps, deduplicated in
        declaration order (the base config first)."""
        out: list[CacheConfig] = []
        for config in (self.cache, *self.sweep):
            if config not in out:
                out.append(config)
        return tuple(out)


@dataclass(frozen=True)
class PipelineConfig:
    """Cross-cutting knobs for the pipeline."""

    engine: str = DEFAULT_ENGINE
    #: Worker processes of every fan-out (0 = the CPU count).
    jobs: int = 1
    cache: bool = True
    #: Root of the disk-backed artifact store (under the in-process
    #: LRUs); ``None`` keeps artifacts in-process only. The directory
    #: is shared safely across concurrent processes.
    cache_dir: str | None = None
    entry: str = "main"
    max_steps: int = DEFAULT_MAX_STEPS
    #: Access-block size of the columnar trace protocol.
    trace_block: int = DEFAULT_TRACE_BLOCK
    filter_config: FilterConfig | None = None
    spm: SpmConfig = SpmConfig()
    #: Input ensemble for ``read_samples`` (None = the default spec).
    input: InputSpec | None = None
    validation: ValidationConfig = ValidationConfig()
    hierarchy: HierarchyConfig = HierarchyConfig()
    #: Structurally verify the bytecode before every run.
    verify_ir: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(
                f"jobs must be >= 0 (0 = the CPU count), got {self.jobs}")

    def engine_config(self) -> EngineConfig:
        return EngineConfig(engine=self.engine, max_steps=self.max_steps,
                            trace_block_size=self.trace_block,
                            input=self.input or InputSpec(),
                            verify_ir=self.verify_ir)


# ---------------------------------------------------------------------------
# The artifact graph: one memo over input-derived keys
# ---------------------------------------------------------------------------


class ArtifactCache:
    """The in-process memo of one node kind, by key.

    Bounded LRU: beyond ``max_entries`` the least-recently-*used* entry is
    evicted (compiled programs and FORAY models are large, so the memo
    must not grow with every source a long-lived process sees). Hits
    refresh recency — an entry that keeps getting hit survives interleaved
    misses.
    """

    def __init__(self, name: str, max_entries: int = 64):
        if max_entries <= 0:
            # put() would otherwise loop forever evicting from an empty
            # dict and die with StopIteration on next(iter({})).
            raise ValueError(
                f"cache {name!r}: max_entries must be positive, "
                f"got {max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self._store: dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        artifact = self._store.pop(key, None)
        if artifact is None:
            self.misses += 1
        else:
            # Re-insert at the back: dict order is the recency order.
            self._store[key] = artifact
            self.hits += 1
        return artifact

    def put(self, key: str, artifact) -> None:
        self._store.pop(key, None)  # overwrite refreshes recency too
        while len(self._store) >= self.max_entries:
            self._store.pop(next(iter(self._store)))
        self._store[key] = artifact

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)


#: The in-process LRU of every node kind, named after the kind's store
#: namespace.
_memos: dict[str, ArtifactCache] = {
    memo.name: memo for memo in (
        ArtifactCache("compile"),
        ArtifactCache("extraction"),
        ArtifactCache("exploration", max_entries=256),
        ArtifactCache("validation", max_entries=256),
        ArtifactCache("hierarchy", max_entries=256),
        ArtifactCache("fuzz", max_entries=4096),
    )
}


def clear_caches() -> None:
    """Drop all memoized in-process pipeline artifacts (mainly for
    benchmarks). The disk store, when configured, is left intact — it is
    cleared explicitly (``repro cache clear``)."""
    for memo in _memos.values():
        memo.clear()


def store_for(config: PipelineConfig) -> ArtifactStore | None:
    """The disk store behind ``config``, or ``None`` when disabled
    (``cache=False`` turns the disk tier off for every namespace). It is
    the process's one store object for that directory
    (:func:`repro.store.open_store`), whose counters take in what fan-out
    workers count (see :func:`_fan_out`)."""
    if not config.cache or not config.cache_dir:
        return None
    return open_store(config.cache_dir)


#: The :class:`PipelineConfig` fields that decide how a run is carried
#: out — fan-out, tiers, IR checks — never what an artifact holds: keys
#: see them at these values.
_PLACEMENT = {"jobs": 1, "cache": True, "cache_dir": None, "verify_ir": False}


def _content_key(kind: str, *inputs) -> str:
    """The key of a ``kind`` node over its producer's ``inputs``: a parent
    :class:`_Node` enters by its key, a :class:`PipelineConfig` by every
    field but the placement ones, a string by its text and anything else
    by its ``repr``."""
    digest = hashlib.sha256(kind.encode())
    for part in inputs:
        if isinstance(part, _Node):
            part = part.key
        elif isinstance(part, PipelineConfig):
            part = replace(part, **_PLACEMENT)
        if isinstance(part, str):
            blob = b"s" + part.encode("utf-8", "surrogatepass")
        else:
            blob = b"r" + repr(part).encode()
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


class _Node:
    """One artifact of the graph, keyed before it is looked up or built.

    ``key`` is :func:`_content_key` over ``inputs``, which are exactly
    what ``produce`` receives. ``config`` only places the artifact: a
    compile node is memoized in process whatever ``config.cache`` says (a
    compiled program is a pure function of its source text), every other
    kind only while it is on, and the disk tier is :func:`store_for`'s.
    ``to_entry`` gives the artifact's disk entry when that is a slimmer
    form of it, which ``from_entry`` turns back into the artifact.
    """

    __slots__ = ("kind", "key", "config", "produce", "to_entry",
                 "from_entry")

    def __init__(self, kind: str, config: PipelineConfig, inputs: tuple,
                 produce: Callable | None = None,
                 to_entry: Callable | None = None,
                 from_entry: Callable | None = None) -> None:
        self.kind = kind
        self.key = _content_key(kind, *inputs)
        self.config = config
        self.produce = produce
        self.to_entry = to_entry
        self.from_entry = from_entry

    def _memoized(self) -> bool:
        return self.config.cache or self.kind == "compile"

    def lookup(self):
        """The memoized artifact, or ``None``: the kind's LRU first, then
        the disk store (a disk hit is rebuilt and kept in the LRU)."""
        if not self._memoized():
            return None
        memo = _memos[self.kind]
        artifact = memo.get(self.key)
        if artifact is None:
            store = store_for(self.config)
            entry = None if store is None else store.get(self.kind, self.key)
            if entry is not None:
                artifact = (entry if self.from_entry is None
                            else self.from_entry(entry))
                memo.put(self.key, artifact)
        return artifact

    def publish(self, artifact) -> None:
        """Memoize ``artifact`` in the LRU and, when configured, on disk."""
        if not self._memoized():
            return
        _memos[self.kind].put(self.key, artifact)
        store = store_for(self.config)
        if store is not None:
            store.put(self.kind, self.key, artifact if self.to_entry is None
                      else self.to_entry(artifact))

    def get(self, fill: Callable | None = None):
        """The artifact, looked up or else produced and published.

        ``fill`` completes the artifact in place and says whether it
        changed it; a changed artifact is published again, and a new one
        once, after its fill.
        """
        artifact = self.lookup()
        changed = artifact is None
        if changed:
            artifact = self.produce()
        if fill is not None and fill(artifact):
            changed = True
        if changed:
            self.publish(artifact)
        return artifact


def _compile_node(source: str, config: PipelineConfig) -> _Node:
    """Parsing, semantic analysis and the checkpoint pass of ``source``,
    one node keyed on the text alone. It is written to disk when it is
    built, before any run of it, so a run that raises leaves it stored,
    and again when the detector fills it."""
    return _Node("compile", config, (source,),
                 produce=lambda: compile_program(source))


def _fill_detector(compiled: CompiledProgram) -> bool:
    """Run the static baseline detector on the compile node unless it
    holds its result already; ``True`` when this call ran it.

    The result refers to the program's own ``Symbol`` objects, which compare
    by identity: unpickled apart from its program it would match none of
    them, and the static analyzer would silently model nothing. So it is
    only ever persisted inside the compile entry, which a fill
    republishes. The check reads :meth:`CompiledProgram.source_form`,
    which leaves a stored program pickled.
    """
    if compiled.source_form() is not None:
        return False
    from repro.staticfar.detector import detect

    compiled.detector = detect(compiled.program)
    return True


def _compiled(source: str, config: PipelineConfig,
              detector: bool = False) -> CompiledProgram:
    """The compile node's program; with ``detector``, carrying the static
    baseline detector's result too (see :func:`_fill_detector`)."""
    return _compile_node(source, config).get(
        fill=_fill_detector if detector else None)


def _run_view(config: PipelineConfig) -> PipelineConfig:
    """What an extraction receives of ``config``: the engine run (engine,
    trace block, entry, step budget, input) and the purge filter, each
    ``None`` spelled as the default it stands for. The other fields stay
    at their defaults, so ``suite``, ``suite --spm``, ``static``,
    ``validate`` and ``hier`` share one extraction per source and run."""
    return PipelineConfig(
        engine=config.engine, cache=config.cache, cache_dir=config.cache_dir,
        entry=config.entry, max_steps=config.max_steps,
        trace_block=config.trace_block,
        filter_config=config.filter_config or FilterConfig(),
        input=config.input or InputSpec(), verify_ir=config.verify_ir)


def _extraction_node(source: str, config: PipelineConfig) -> _Node:
    """Profile ``source`` under ``config``'s run fields with the FORAY
    extractor attached as a live trace sink, then finalize and purge the
    model (steps 2-4). The trace block size cannot change the model (the
    parity tests pin that down), but it is part of the producing run:
    keying on it keeps warm artifacts from one block size from masking a
    defect at another. The disk entry leaves the program out, and a
    stored extraction is rebuilt against its compile node."""
    run = _run_view(config)
    compiled = _compile_node(source, run)

    def extract() -> ExtractionResult:
        from repro.foray.extractor import ForayExtractor

        program = compiled.get()
        extractor = ForayExtractor(program.checkpoint_map, run.filter_config)
        result = run_compiled(program, sinks=(extractor,), entry=run.entry,
                              config=run.engine_config())
        # Pipeline results keep no engine: its memory pages would ride
        # along in every memoized, persisted or fanned-out extraction.
        return ExtractionResult(extractor.finish(), program,
                                replace(result, machine=None),
                                extractor.executed_loops())

    return _Node(
        "extraction", run, (compiled, run), produce=extract,
        to_entry=ExtractionResult.entry,
        from_entry=lambda entry: ExtractionResult.from_entry(
            entry, compiled.get()))


def normalize_ladder(capacities: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical capacity-ladder form: sorted and deduplicated, so
    equivalent ladders share one exploration node."""
    return tuple(sorted(set(capacities)))


def cached_exploration(
    source: str,
    config: PipelineConfig,
    model: ForayModel,
    *,
    graph: ReuseGraph | None = None,
) -> tuple["ExplorationPoint", ...]:
    """Memoized capacity sweep of ``model``, the model of ``source``'s
    extraction under ``config``, over ``config.spm``'s capacity ladder,
    allocator policy and energy model.

    The ladder is normalized first, so reordered ladders land on the
    same node. ``graph``, the reuse graph of ``model`` under
    ``config.spm.energy``, spares rebuilding one the caller holds. The
    artifact is a tuple — it is shared across callers, so it must not be
    mutable through a returned reference.
    """
    spm_config = config.spm
    capacities = normalize_ladder(spm_config.capacities)
    policy = AllocatorPolicy(spm_config.allocator)
    energy = spm_config.energy
    return _Node(
        "exploration", config,
        (_extraction_node(source, config), capacities, policy, energy),
        produce=lambda: tuple(explore(model, capacities, energy, policy,
                                      graph=graph)),
    ).get()


def _fuzz_outcome(template: str, checks: tuple[str, ...], shrink: bool,
                  config: PipelineConfig, produce: Callable):
    """The fuzz outcome node of one generated program; ``produce`` runs
    :mod:`repro.gen.fuzz`'s check battery on it. The program enters by
    its source template, which embeds the generator version, profile and
    seed, so no outcome outlives a generator change. A memoized outcome
    comes back marked ``cached``."""
    node = _Node("fuzz", config, (template, checks, shrink, config))
    outcome = node.lookup()
    if outcome is not None:
        return replace(outcome, cached=True)
    outcome = produce()
    node.publish(outcome)
    return outcome


# ---------------------------------------------------------------------------
# Results and classic entry points
# ---------------------------------------------------------------------------


@dataclass
class ExtractionResult:
    """Phase I output: the FORAY model and what its profiling run left.

    ``compiled`` is the compile node's program, shared rather than copied.
    ``run_result`` carries the exit code, stdout and :class:`RunStats` but
    no engine (``machine`` is ``None``); ``executed_loops`` maps the AST
    node_id of every static loop that ran to its kind (Table I).
    """

    model: ForayModel
    compiled: CompiledProgram
    run_result: RunResult
    executed_loops: dict[int, str]

    def entry(self) -> tuple[ForayModel, RunResult, dict[int, str]]:
        """The extraction node's disk entry: everything but ``compiled``,
        which the compile entry already holds."""
        return self.model, self.run_result, self.executed_loops

    @classmethod
    def from_entry(cls, entry: tuple[ForayModel, RunResult, dict[int, str]],
                   compiled: CompiledProgram) -> "ExtractionResult":
        """Rebuild a result from its disk entry and the compile node."""
        model, run_result, executed_loops = entry
        return cls(model, compiled, run_result, executed_loops)

    @property
    def foray_source(self) -> str:
        """The FORAY model rendered as C text (paper Figures 2/4d)."""
        from repro.foray.emitter import emit_model

        return emit_model(self.model)


def extract_foray_model(
    source: str, *, config: PipelineConfig | None = None,
) -> ExtractionResult:
    """Run Phase I (FORAY-GEN) on MiniC source text: the extraction node.

    The extractor is attached as a live trace sink (the paper's
    constant-space online mode).
    """
    return _extraction_node(source, config or PipelineConfig()).get()


@dataclass
class WorkloadReport:
    """Phase I results plus all paper metrics for one workload."""

    name: str
    extraction: ExtractionResult
    census: LoopCensus
    table2: ForayFormCoverage
    table3: MemoryBehavior

    @property
    def model(self) -> ForayModel:
        return self.extraction.model

    @property
    def static_result(self) -> StaticAnalysisResult:
        """The static baseline detector's result: Table II's source, read
        from the compile node (whose program a stored node unpickles
        with it on first use)."""
        detector = self.extraction.compiled.detector
        assert detector is not None
        return detector


def run_workload(
    name: str, source: str, *, config: PipelineConfig | None = None,
) -> WorkloadReport:
    """Phase I + static baseline + Tables I/II/III metrics for one program.

    The compile node is filled with the detector's result before the
    extraction runs, so a cold run writes it once. The tables read the
    detector's node ids and the trace counts, never the program, the
    detector or the trace sets, so a run over stored nodes leaves all of
    those pickled.
    """
    config = config or PipelineConfig()
    compiled = _compiled(source, config, detector=True)
    extraction = _extraction_node(source, config).get()
    if extraction.compiled is not compiled:
        # The extraction outlived its compile node in the LRUs.
        extraction = ExtractionResult.from_entry(extraction.entry(), compiled)
    source_form = compiled.source_form()
    assert source_form is not None
    census = loop_census(name, source, extraction.executed_loops)
    table2 = table2_coverage(name, extraction.model, source_form)
    table3 = table3_behavior(name, extraction.model)
    return WorkloadReport(name, extraction, census, table2, table3)


def _counted(call: Callable) -> tuple:
    """Run one fan-out call in a pool process: its result, with what
    each store counted during it (what the process inherited or counted
    for an earlier call is dropped first)."""
    reset_store_counters()
    result = call()
    return result, take_store_counters()


#: The modules the fanned-out producers import when they run (the IR
#: verifier only under ``verify_ir``). A pool imports them before it
#: forks, so its workers inherit one copy instead of each importing its
#: own; ``tests/test_store.py::TestStartup`` checks the list against
#: what the producers import.
_PRODUCER_MODULES = (
    "repro.cachesim.report", "repro.cachesim.sink",
    "repro.foray.extractor", "repro.foray.validate",
    "repro.instrument.checkpoints", "repro.lang.parser",
    "repro.lang.semantics", "repro.sim.bytecode", "repro.sim.interpreter",
    "repro.sim.specialize", "repro.sim.verify", "repro.spm.graph",
    "repro.staticfar.analyze", "repro.staticfar.detector",
    "repro.staticfar.oracle",
)


def _fan_out(calls: list[Callable], jobs: int) -> list:
    """Run zero-argument ``calls``, in up to ``jobs`` worker processes.

    The one fan-out machinery behind every matrix: ``jobs=0`` uses the
    CPU count, the pool is capped at the call count, and results come
    back in call order. A pool process returns each result with its
    stores' counters, which are added to this process's stores, so
    ``session_counters()`` counts the run whether or not it fanned out.
    """
    if jobs == 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(calls))
    if jobs <= 1:
        return [call() for call in calls]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    for module in _PRODUCER_MODULES:
        importlib.import_module(module)
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        mp_context = multiprocessing.get_context()
    results = []
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=mp_context) as executor:
        for result, counters in executor.map(_counted, calls):
            for root, counts in counters.items():
                open_store(root).add_counters(counts)
            results.append(result)
    return results


def _workloads(names: tuple[str, ...] | None) -> list:
    """The named workloads (default: the suite), resolved before any
    matrix runs, so a bad name fails before any simulation."""
    from repro.workloads.registry import get_workload, workload_names

    return [get_workload(name) for name in (names or workload_names())]


def run_suite(
    names: tuple[str, ...] | None = None, *,
    config: PipelineConfig | None = None,
) -> list[WorkloadReport]:
    """Run the full mini-MiBench suite (the paper's six plus mpeg2).

    ``config.jobs > 1`` fans the workloads out over that many worker
    processes (``0`` uses the CPU count); results come back in suite
    order either way.
    """
    config = config or PipelineConfig()
    return _fan_out([functools.partial(run_workload, w.name, w.source,
                                       config=config)
                     for w in _workloads(names)], config.jobs)


# ---------------------------------------------------------------------------
# Static analysis: the (workload x scenario) differential-oracle matrix
# ---------------------------------------------------------------------------


@dataclass
class StaticReport:
    """Static coverage plus the oracle outcome for one (workload, scenario)."""

    name: str
    scenario: str
    static: StaticForayModel
    oracle: OracleReport

    @property
    def ok(self) -> bool:
        return self.oracle.ok


def static_workload(
    name: str,
    source: str,
    config: PipelineConfig | None = None,
    scenario: str = "",
) -> StaticReport:
    """Static model + differential oracle for one program and input:
    the static analyzer runs on the extraction's program under the same
    filter and entry, and the oracle's disagreements are reported, not
    raised — callers (``repro static``, the tests) decide how loud to
    be."""
    from repro.staticfar.analyze import analyze_static
    from repro.staticfar.oracle import compare_models

    config = config or PipelineConfig()
    report = run_workload(name, source, config=config)
    static = analyze_static(
        report.extraction.compiled.program, config.filter_config,
        detector_result=report.static_result, name=name, entry=config.entry)
    oracle = compare_models(report.model, static,
                            detector=report.static_result, name=name,
                            scenario=scenario)
    return StaticReport(name, scenario, static, oracle)


def _scenario_cells(produce: Callable, workload, scenarios: list,
                    config: PipelineConfig, *args) -> list:
    """``produce(name, source, config, *args, scenario=label)`` on each of
    one workload's ``scenarios``, in order. ``None`` stands for the
    nominal source of a workload with no scenario matrix, labelled
    ``"-"``.

    A workload's cells are one call of a matrix's fan-out, so cells that
    share a source share its compile node in one process.
    """
    cells = []
    for scenario in scenarios:
        if scenario is None:
            source, label, cell_config = workload.source, "-", config
        else:
            source, label = workload.source_for(scenario), scenario.name
            cell_config = _scenario_config(config, scenario)
        cells.append(produce(workload.name, source, cell_config, *args,
                             scenario=label))
    return cells


def static_suite(
    names: tuple[str, ...] | None = None,
    config: PipelineConfig | None = None,
) -> list[StaticReport]:
    """The full static matrix: every (workload x scenario) cell runs the
    compile-time analyzer against the dynamic extraction and diffs the
    two models. Workloads fan out over ``config.jobs`` worker processes,
    one call each; results come back in matrix order (workloads in suite
    order, then scenarios)."""
    config = config or PipelineConfig()
    groups = _fan_out([
        functools.partial(_scenario_cells, static_workload, workload,
                          list(workload.scenarios) or [None], config)
        for workload in _workloads(names)
    ], config.jobs)
    return [cell for group in groups for cell in group]


@dataclass(frozen=True)
class LintReport:
    """Linter findings for one (workload, scenario) source."""

    workload: str
    scenario: str
    findings: tuple[Finding, ...]

    @property
    def label(self) -> str:
        if self.scenario:
            return f"{self.workload}/{self.scenario}"
        return self.workload

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")


def lint_suite(names: tuple[str, ...] | None = None) -> list[LintReport]:
    """Run the MiniC linter over every (workload x scenario) source.

    Pure front-end work (no simulation), so cells run serially; the
    whole suite takes well under a second."""
    from repro.lang.lint import lint_source

    reports: list[LintReport] = []
    for workload in _workloads(names):
        scenario_names = workload.scenario_names() or (None,)
        for scenario_name in scenario_names:
            if scenario_name is None:
                source, label = workload.source, workload.name
            else:
                source = workload.source_for(scenario_name)
                label = f"{workload.name}/{scenario_name}"
            reports.append(LintReport(
                workload.name, scenario_name or "",
                tuple(lint_source(source, label))))
    return reports


@dataclass
class FullFlowResult:
    """Phases I+II: model extraction plus SPM optimization."""

    report: WorkloadReport
    allocation: Allocation
    transformed_source: str
    #: The reuse-graph IR the allocation was selected over.
    graph: ReuseGraph
    #: Capacity sweep (only when ``SpmConfig.sweep`` is enabled).
    exploration: tuple[ExplorationPoint, ...] | None = None

    @property
    def energy_saving_nj(self) -> float:
        return self.allocation.total_benefit_nj


def full_flow(
    name: str, source: str, *, config: PipelineConfig | None = None,
) -> FullFlowResult:
    """The complete design flow of the paper's Figure 3 (Phases I and II).

    ``config.spm`` sets the capacity, the allocator policy, the energy
    model and whether the capacity sweep runs. Phase III
    (back-annotating the transformed model into the legacy code) is
    manual by design in the paper; the transformed model text returned
    here is the input a designer would use for it.
    """
    from repro.spm.graph import ReuseGraph
    from repro.spm.transform import transform_model

    config = config or PipelineConfig()
    spm_config = config.spm
    report = run_workload(name, source, config=config)
    policy = AllocatorPolicy(spm_config.allocator)
    graph = ReuseGraph.from_model(report.model, spm_config.energy)
    allocation = allocate_graph(graph, spm_config.spm_bytes, policy)
    exploration = None
    if spm_config.sweep:
        exploration = cached_exploration(source, config, report.model,
                                         graph=graph)
    return FullFlowResult(report, allocation, transform_model(allocation),
                          graph, exploration)


# ---------------------------------------------------------------------------
# Cross-input validation: the (workload x scenario) matrix
# ---------------------------------------------------------------------------


def _scenario_config(config: PipelineConfig, scenario) -> PipelineConfig:
    """The pipeline config that runs one input scenario."""
    return replace(config, input=scenario.input)


def _replay_scenario(
    workload, profile, scenario, model: ForayModel, config: PipelineConfig
) -> ValidationReport:
    """One validation cell: ``scenario``'s trace replayed against
    ``model``, the model of the extraction on ``profile``.

    The replay attaches a :class:`ValidationSink` directly to the engine
    (batched sink protocol), so the scenario trace is never materialized.
    """
    run = _run_view(_scenario_config(config, scenario))
    compiled = _compile_node(workload.source_for(scenario), run)
    profile_extraction = _extraction_node(
        workload.source_for(profile), _scenario_config(config, profile))

    def replay() -> ValidationReport:
        from repro.foray.validate import ValidationSink

        program = compiled.get()
        sink = ValidationSink(model, program.checkpoint_map)
        run_compiled(program, sinks=(sink,), entry=run.entry,
                     config=run.engine_config())
        return sink.finish()

    return _Node("validation", run, (profile_extraction, compiled, run),
                 produce=replay).get()


def _select_scenarios(workload, validation: ValidationConfig) -> list:
    """The scenario subset one validation run covers, profile first."""
    if len(workload.scenarios) < 2:
        raise ValueError(
            f"workload {workload.name!r} declares no scenario matrix; "
            "cross-input validation needs at least two scenarios"
        )
    if validation.max_scenarios is not None and validation.max_scenarios < 2:
        raise ValueError(
            "max_scenarios must be >= 2 (the profile scenario plus at "
            f"least one replay), got {validation.max_scenarios}"
        )
    profile_name = validation.profile or workload.scenarios[0].name
    try:
        profile = workload.scenario(profile_name)
    except KeyError:
        raise ValueError(
            f"workload {workload.name!r} declares no scenario "
            f"{profile_name!r} to profile on; known: "
            f"{', '.join(workload.scenario_names())}"
        ) from None
    scenarios = [profile] + [s for s in workload.scenarios
                             if s.name != profile.name]
    if validation.max_scenarios is not None:
        scenarios = scenarios[: validation.max_scenarios]
    return scenarios


def _profile_extraction(workload, profile,
                        config: PipelineConfig) -> ExtractionResult:
    """The extraction on the profile scenario: memoized like any other
    (so not at all under ``cache=False``); callers take it once and pass
    its model to every replay of the workload."""
    return extract_foray_model(workload.source_for(profile),
                               config=_scenario_config(config, profile))


def _validate_against(workload, scenarios: list, model: ForayModel,
                      config: PipelineConfig) -> WorkloadValidation:
    """Replay every scenario against ``model``, extracted on the first
    (profile) scenario: the self-validation row, then one cross cell per
    other scenario."""
    from repro.foray.validate import ScenarioValidation, WorkloadValidation

    profile = scenarios[0]
    cells = tuple(
        ScenarioValidation(
            workload.name, scenario.name, profile.name, config.engine,
            _replay_scenario(workload, profile, scenario, model, config))
        for scenario in scenarios)
    return WorkloadValidation(
        workload=workload.name,
        profile=profile.name,
        scenario_count=len(scenarios),
        self_validation=cells[0].report,
        cross=cells[1:],
    )


def validate_workload(
    name: str,
    config: PipelineConfig | None = None,
) -> WorkloadValidation:
    """Cross-input validation of one workload over its scenario matrix.

    Extracts the model once, on the profile scenario
    (``config.validation`` selects it; the nominal scenario by default),
    replays every other scenario's trace against it, and scores
    per-reference accuracy. The profile scenario itself is replayed too
    — the self-validation row on which full references must score 100%.
    """
    config = config or PipelineConfig()
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    scenarios = _select_scenarios(workload, config.validation)
    extraction = _profile_extraction(workload, scenarios[0], config)
    return _validate_against(workload, scenarios, extraction.model, config)


def validate_suite(
    names: tuple[str, ...] | None = None,
    config: PipelineConfig | None = None,
) -> list[WorkloadValidation]:
    """The full scenario matrix: every (workload x scenario) cell.

    Every workload and its scenario selection are resolved first, so a
    bad name or a workload without a scenario matrix fails before any
    simulation. Then :func:`validate_workload` fans out over
    ``config.jobs`` worker processes, one call per workload, the
    machinery ``run_suite`` uses: a workload's profile extraction and
    replays run in one process, which compiles each of its programs
    once. Results come back in suite order.
    """
    config = config or PipelineConfig()
    selected = _workloads(names)
    for workload in selected:
        _select_scenarios(workload, config.validation)
    return _fan_out([functools.partial(validate_workload, workload.name,
                                       config=config)
                     for workload in selected], config.jobs)


# ---------------------------------------------------------------------------
# Cache-hierarchy co-simulation: the (workload x scenario x config) matrix
# ---------------------------------------------------------------------------


def hierarchy_for_configs(
    name: str,
    source: str,
    config: PipelineConfig,
    cache_configs: tuple[CacheConfig, ...],
    scenario: str = "-",
) -> tuple[HierarchyReport, ...]:
    """Hierarchy matrix cells for one (source, scenario): pure cache vs
    SPM+cache under every configuration in ``cache_configs``.

    Each cell is a node over the extraction node, its cache
    configuration and ``config.spm``'s capacity, policy and energy
    model. For the cells no tier holds, the FORAY model is extracted (or
    reused), the SPM allocation :func:`full_flow` would select is
    selected, and the program run **once** with two streaming
    :class:`CacheSink`\\ s per such configuration attached — the engine
    run (the expensive part) is shared across the whole cache-config
    sweep, and the trace is never materialized.
    """
    energy = config.spm.energy
    policy = AllocatorPolicy(config.spm.allocator)
    capacity = config.spm.spm_bytes
    extraction = _extraction_node(source, config)
    reports: dict[CacheConfig, HierarchyReport] = {}
    missing: dict[CacheConfig, _Node] = {}
    for cache_config in cache_configs:
        if cache_config in reports or cache_config in missing:
            continue  # duplicate spec: one cell serves all mentions
        node = _Node("hierarchy", config, (name, scenario, extraction,
                                           cache_config, capacity, policy,
                                           energy))
        report = node.lookup()
        if report is None:
            missing[cache_config] = node
        else:
            reports[cache_config] = report
    if missing:
        from repro.cachesim.model import CacheHierarchy
        from repro.cachesim.report import build_hierarchy_report
        from repro.cachesim.sink import CacheSink, allocation_intervals
        from repro.spm.graph import ReuseGraph

        graph = ReuseGraph.from_model(extraction.get().model, energy)
        allocation = allocate_graph(graph, capacity, policy)
        intervals = allocation_intervals(allocation)
        sink_pairs = [
            (CacheSink(CacheHierarchy(cache_config)),
             CacheSink(CacheHierarchy(cache_config), intervals))
            for cache_config in missing
        ]
        run_compiled(
            _compiled(source, config),
            sinks=tuple(sink for pair in sink_pairs for sink in pair),
            entry=config.entry,
            config=config.engine_config(),
        )
        for (cache_config, node), (pure, hybrid) in zip(missing.items(),
                                                        sink_pairs):
            report = build_hierarchy_report(
                name, scenario, cache_config, allocation,
                pure.finish(), hybrid.finish(), energy,
            )
            node.publish(report)
            reports[cache_config] = report
    return tuple(reports[cache_config] for cache_config in cache_configs)


def _hier_scenarios(workload, hierarchy: HierarchyConfig) -> list:
    """The scenario-axis subset of one workload's matrix cells.

    ``None`` stands for "the nominal source with the config's input" —
    used for workloads that declare no scenario matrix. Declared
    scenarios are taken in order, the nominal profiling scenario first.
    """
    if not workload.scenarios:
        return [None]
    count = (1 if hierarchy.max_scenarios is None
             else hierarchy.max_scenarios)
    return list(workload.scenarios[:count])


def hier_suite(
    names: tuple[str, ...] | None = None,
    config: PipelineConfig | None = None,
) -> list[HierarchyReport]:
    """The full hierarchy matrix: (workload x scenario x cache-config).

    Workloads are the unit of fan-out over ``config.jobs`` worker
    processes, one call each, the machinery ``run_suite`` and
    ``validate_suite`` use. All swept cache configurations of a
    (workload x scenario) cell ride one engine run (see
    :func:`hierarchy_for_configs`), so a sweep never re-simulates a
    trace per configuration, and every finished cell is served from the
    hierarchy artifact store when warm (a repeat matrix performs zero
    simulations). Results come back flattened in matrix order:
    workloads in suite order, then scenarios, then cache configs.
    """
    config = config or PipelineConfig()
    configs = config.hierarchy.configs()
    groups = _fan_out([
        functools.partial(_scenario_cells, hierarchy_for_configs, workload,
                          _hier_scenarios(workload, config.hierarchy),
                          config, configs)
        for workload in _workloads(names)
    ], config.jobs)
    return [report for group in groups for cell in group for report in cell]

"""Top-level FORAY-GEN pipeline — the public API most users want.

The flow is organised as a registry of named stages, executed in order::

    compile → instrument → simulate → extract → analyze →
    validate → optimize → hierarchy

* **compile** — parse + semantic analysis of the MiniC source;
* **instrument** — checkpoint annotation (paper Algorithm 1, step 1);
* **simulate** — execute the program on the selected engine with the
  FORAY extractor attached as a live trace sink (the paper's
  constant-space online mode);
* **extract** — finalize the loop tree and purge the model (steps 2–4);
* **analyze** — static baseline plus the Table I–III metrics;
* **validate** — replay the workload's other input scenarios against the
  extracted model (cross-input stability; off by default);
* **optimize** — Phase II SPM reuse analysis / buffer allocation;
* **hierarchy** — cache co-simulation: pure cache vs SPM+cache over the
  streaming :class:`~repro.cachesim.sink.CacheSink` (off by default).

:class:`PipelineConfig` selects the execution engine (``bytecode`` or
``ast``), the suite parallelism (``jobs``) and whether the content-hash
artifact cache is consulted. The classic entry points are thin
compositions over the stages:

* :func:`extract_foray_model` — stages through **extract**, returning the
  FORAY model. It is the only producer of one: validation, the static
  oracle and the fuzz battery all take their model from it.
* :func:`run_workload` — through **analyze** for one workload.
* :func:`run_suite` — the full mini-MiBench evaluation (Tables I–III),
  optionally fanned out over worker processes with ``jobs=N``.
* :func:`full_flow` — through **optimize**, emitting the transformed model.
* :func:`static_workload` / :func:`static_suite` — the compile-time
  model of :mod:`repro.staticfar` diffed against the extracted one by
  the differential oracle, per ``(workload × scenario)`` cell.
* :func:`validate_workload` / :func:`validate_suite` — the cross-input
  scenario matrix: each workload's model is extracted once, on its
  profile scenario, and every ``(workload × scenario)`` cell replays one
  scenario's trace against it, fanned out over the same worker-process
  machinery.
* :func:`hier_suite` — the ``(workload × scenario × cache-config)``
  hierarchy matrix: every cell co-simulates a pure cache against
  SPM+cache through streaming sinks, fanned out and persisted the same
  way.

Compiled programs and extraction results are memoized in an in-process
content-hash cache (keyed by source text and the exact run configuration).
When ``PipelineConfig.cache_dir`` is set, the in-memory caches become the
L1 tier over a disk-backed, content-addressed
:class:`~repro.store.ArtifactStore` (L2) shared across processes —
``_fan_out`` workers and repeat CLI invocations then serve compilation,
simulation, extraction, sweep and validation artifacts from disk instead
of recomputing them. ``cache=False`` / ``--no-cache`` drops the disk tier
and reuses no simulated artifact; compiled programs, a pure function of
the source text, are still shared within the process until
:func:`clear_caches`.
"""

from __future__ import annotations

import functools
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.analysis.census import LoopCensus, loop_census
from repro.cachesim.model import CacheConfig, CacheHierarchy
from repro.cachesim.report import HierarchyReport, build_hierarchy_report
from repro.cachesim.sink import CacheSink, allocation_intervals
from repro.analysis.coverage import (
    ForayFormCoverage,
    MemoryBehavior,
    table2_coverage,
    table3_behavior,
)
from repro.foray.emitter import emit_model
from repro.foray.extractor import ForayExtractor
from repro.foray.filters import FilterConfig
from repro.foray.model import ForayModel
from repro.lang.lint import Finding, lint_source
from repro.foray.validate import (
    ScenarioValidation,
    ValidationReport,
    ValidationSink,
    WorkloadValidation,
)
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
from repro.spm.graph import ReuseGraph
from repro.spm.transform import transform_model
from repro.staticfar.analyze import analyze_static
from repro.staticfar.detector import StaticAnalysisResult, detect
from repro.staticfar.model import StaticForayModel
from repro.staticfar.oracle import OracleReport, compare_models
from repro.store import ArtifactStore

DEFAULT_MAX_STEPS = 200_000_000


@dataclass(frozen=True)
class SpmConfig:
    """Phase II knobs: capacity, allocator policy, energy overrides."""

    #: SPM capacity used by the single-capacity optimize stage.
    spm_bytes: int = 4096
    #: Capacity ladder swept when ``sweep`` is enabled.
    capacities: tuple[int, ...] = DEFAULT_CAPACITIES
    #: Allocator policy name (see :class:`AllocatorPolicy`).
    allocator: str = AllocatorPolicy.DP.value
    #: Per-access energy numbers (override to model other technologies).
    energy: EnergyModel = EnergyModel()
    #: Run the capacity sweep in the optimize stage (cached).
    sweep: bool = False


@dataclass(frozen=True)
class ValidationConfig:
    """Scenario-matrix knobs for the ``validate`` stage.

    ``scenarios=None`` replays every scenario the workload declares;
    ``profile=None`` extracts the model on the workload's first (nominal)
    scenario. ``threshold`` is the minimum acceptable cross-input overall
    accuracy gated by ``WorkloadValidation.passes`` (the CLI exit code).
    """

    enabled: bool = False
    scenarios: tuple[str, ...] | None = None
    profile: str | None = None
    #: Truncate the scenario set to its first N entries (CLI --scenarios).
    max_scenarios: int | None = None
    threshold: float = 0.0


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache-hierarchy co-simulation knobs for the ``hierarchy`` stage.

    ``sweep`` adds extra cache configurations to every matrix cell (the
    cache-config axis of the (workload x scenario x cache-config)
    evaluation matrix); ``max_scenarios`` widens the scenario axis to a
    workload's first N declared input scenarios (default: the nominal
    profiling scenario only).
    """

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
    """Cross-cutting knobs for the staged pipeline."""

    engine: str = DEFAULT_ENGINE
    jobs: int = 1
    cache: bool = True
    #: Root of the disk-backed artifact store (L2 under the in-memory
    #: caches); ``None`` keeps the caches in-process only. The directory
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
    #: Structurally verify the lowered/fused bytecode before every run.
    verify_ir: bool = False

    def engine_config(self) -> EngineConfig:
        return EngineConfig(engine=self.engine, max_steps=self.max_steps,
                            trace_block_size=self.trace_block,
                            input=self.input or InputSpec(),
                            verify_ir=self.verify_ir)


def _merge_config(
    config: PipelineConfig | None,
    filter_config: FilterConfig | None,
    max_steps: int | None = None,
    entry: str | None = None,
) -> PipelineConfig:
    """Fold classic per-call arguments into a :class:`PipelineConfig`.

    Only explicitly passed arguments (non-None) override the config.
    """
    merged = config or PipelineConfig()
    if filter_config is not None:
        merged = replace(merged, filter_config=filter_config)
    if max_steps is not None:
        merged = replace(merged, max_steps=max_steps)
    if entry is not None:
        merged = replace(merged, entry=entry)
    return merged


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


class ArtifactCache:
    """A content-addressed in-process memo of pipeline artifacts.

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


#: Compiled (analyzed + instrumented + lazily lowered) programs by source.
compile_cache = ArtifactCache("compile")
#: Finished extraction results by (source, engine, filters, budget, entry).
extraction_cache = ArtifactCache("extraction")
#: Capacity-sweep results by (source, run config, ladder, policy, energy).
exploration_cache = ArtifactCache("exploration", max_entries=256)
#: Cross-input validation reports by (profile extraction, replay scenario).
validation_cache = ArtifactCache("validation", max_entries=256)
#: Cache-hierarchy comparison cells by (extraction, cache config, SPM knobs).
hierarchy_cache = ArtifactCache("hierarchy", max_entries=256)
#: Per-program fuzz outcomes by (generated source, check set, run config).
#: The generated source embeds the generator version + profile + seed in
#: its header, so these keys — like every downstream ``_compile_key`` —
#: roll over automatically when the generator changes.
fuzz_cache = ArtifactCache("fuzz", max_entries=4096)


def clear_caches() -> None:
    """Drop all memoized in-process pipeline artifacts (mainly for
    benchmarks). The disk store, when configured, is left intact — it is
    cleared explicitly (``repro cache clear``)."""
    compile_cache.clear()
    extraction_cache.clear()
    exploration_cache.clear()
    validation_cache.clear()
    hierarchy_cache.clear()
    fuzz_cache.clear()


#: One ArtifactStore instance per cache directory, shared by every
#: pipeline run in this process (fork-spawned workers inherit it; the
#: store resets its counters in the child).
_stores: dict[str, ArtifactStore] = {}


def store_for(config: PipelineConfig) -> ArtifactStore | None:
    """The disk store behind ``config``, or ``None`` when disabled
    (``cache=False`` turns the disk tier off for every namespace)."""
    if not config.cache or not config.cache_dir:
        return None
    store = _stores.get(config.cache_dir)
    if store is None:
        store = _stores[config.cache_dir] = ArtifactStore(config.cache_dir)
    return store


def persist_store_counters(config: PipelineConfig) -> None:
    """Publish this process's disk-cache counters (no-op without a store)."""
    store = store_for(config)
    if store is not None:
        store.persist_counters()


def _tiered_get(cache: ArtifactCache, key: str, config: PipelineConfig,
                thaw: Callable | None = None):
    """L1 (memory) lookup, falling back to L2 (disk); a disk hit is
    promoted into the memory cache, through ``thaw`` when the disk entry
    is a slimmer form of the memory artifact (see :func:`_tiered_put`)."""
    artifact = cache.get(key)
    if artifact is not None:
        return artifact
    store = store_for(config)
    if store is None:
        return None
    artifact = store.get(cache.name, key)
    if artifact is not None:
        if thaw is not None:
            artifact = thaw(artifact)
        cache.put(key, artifact)
    return artifact


def _tiered_put(cache: ArtifactCache, key: str, artifact,
                config: PipelineConfig, entry=None) -> None:
    """Memoize in memory and, when configured, persist to disk — as
    ``entry`` when given, a form of ``artifact`` that leaves out what
    another node already stores."""
    cache.put(key, artifact)
    store = store_for(config)
    if store is not None:
        store.put(cache.name, key, artifact if entry is None else entry)


def _content_key(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _compile_key(source: str) -> str:
    return _content_key("compile", source)


def _extraction_key(source: str, config: PipelineConfig) -> str:
    # trace_block cannot change the extracted model (the parity tests pin
    # that down), but it is part of the producing engine's identity:
    # keying on it keeps warm artifacts from one block size from masking
    # a defect at another.
    return _content_key(
        "extract",
        source,
        config.engine,
        config.trace_block,
        config.entry,
        config.max_steps,
        config.filter_config or FilterConfig(),
        config.input or InputSpec(),
    )


def normalize_ladder(capacities: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical capacity-ladder form: sorted and deduplicated, so
    equivalent ladders share one exploration-cache entry."""
    return tuple(sorted(set(capacities)))


def _resolve_energy(
    energy: EnergyModel | None, config: PipelineConfig
) -> EnergyModel:
    """Canonical energy model for cache keying: ``None`` means the
    config's model. Keys are built from the resolved *value*, so
    ``energy=None`` and spelling the same model out explicitly (e.g. an
    explicit default ``EnergyModel()`` under a default config) land on
    one cache entry instead of duplicating identical sweeps."""
    return config.spm.energy if energy is None else energy


def exploration_key(
    source: str,
    config: PipelineConfig,
    capacities: tuple[int, ...],
    policy: str,
    energy: EnergyModel | None,
) -> str:
    """Cache key of one workload's capacity sweep."""
    return _content_key(
        "explore",
        _extraction_key(source, config),
        normalize_ladder(capacities),
        policy,
        _resolve_energy(energy, config),
    )


def cached_exploration(
    source: str,
    config: PipelineConfig,
    model: ForayModel,
    capacities: tuple[int, ...] | None = None,
    policy: "AllocatorPolicy | str | None" = None,
    energy: EnergyModel | None = None,
    graph: ReuseGraph | None = None,
) -> tuple["ExplorationPoint", ...]:
    """Memoized capacity sweep of one workload's model.

    ``None`` arguments fall back to ``config.spm``. The cached artifact is
    a tuple — it is shared across callers, so it must not be mutable
    through a returned reference.
    """
    spm_config = config.spm
    capacities = normalize_ladder(capacities if capacities is not None
                                  else spm_config.capacities)
    policy = AllocatorPolicy(policy if policy is not None
                             else spm_config.allocator)
    energy = _resolve_energy(energy, config)
    key = exploration_key(source, config, capacities, policy.value, energy)
    points = (_tiered_get(exploration_cache, key, config)
              if config.cache else None)
    if points is None:
        points = tuple(explore(model, capacities, energy, policy,
                               graph=graph))
        if config.cache:
            _tiered_put(exploration_cache, key, points, config)
    return points


# ---------------------------------------------------------------------------
# Stage registry
# ---------------------------------------------------------------------------


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one pipeline run."""

    source: str
    config: PipelineConfig
    name: str = "<anonymous>"
    #: Per-call overrides of the config's SPM settings (None = use config).
    spm_bytes: int | None = None
    energy_model: EnergyModel | None = None

    # Artifacts, filled in by the stages.
    compiled: CompiledProgram | None = None
    extractor: ForayExtractor | None = None
    run_result: RunResult | None = None
    extraction: "ExtractionResult | None" = None
    report: "WorkloadReport | None" = None
    validation: WorkloadValidation | None = None
    flow: "FullFlowResult | None" = None
    hierarchy: tuple[HierarchyReport, ...] | None = None


@dataclass(frozen=True)
class Stage:
    """One named step of the pipeline."""

    name: str
    func: Callable[[PipelineContext], None]
    description: str


#: Registered stages, in execution order.
STAGES: dict[str, Stage] = {}


def register_stage(name: str, description: str):
    def decorator(func: Callable[[PipelineContext], None]):
        STAGES[name] = Stage(name, func, description)
        return func

    return decorator


def stage_names() -> tuple[str, ...]:
    """The registered stage names, in execution order."""
    return tuple(STAGES)


def run_stages(ctx: PipelineContext, upto: str) -> PipelineContext:
    """Run the registered stages in order, stopping after ``upto``."""
    if upto not in STAGES:
        raise KeyError(f"unknown stage {upto!r}; known: {stage_names()}")
    for stage in STAGES.values():
        stage.func(ctx)
        if stage.name == upto:
            break
    return ctx


@register_stage("compile", "parse + semantic analysis")
def _stage_compile(ctx: PipelineContext) -> None:
    if ctx.compiled is not None:
        return
    # A compiled program is a pure function of the source text, so the
    # in-memory tier serves it whatever ``config.cache`` says; the config
    # only gates the disk tier (see ``store_for``).
    cached = _tiered_get(compile_cache, _compile_key(ctx.source), ctx.config)
    if cached is not None:
        ctx.compiled = cached  # already instrumented; skips both stages
        return
    # compile_program also runs the instrument pass; the separate stage
    # below exists so callers can observe/extend the boundary.
    ctx.compiled = compile_program(ctx.source, annotate=False)


@register_stage("instrument", "checkpoint annotation (Algorithm 1 step 1)")
def _stage_instrument(ctx: PipelineContext) -> None:
    assert ctx.compiled is not None
    if ctx.compiled.is_instrumented:
        return  # a cache hit or a caller's program: annotated already
    from repro.instrument.checkpoints import instrument

    ctx.compiled.checkpoint_map = instrument(ctx.compiled.program)
    ctx.compiled.is_instrumented = True
    _tiered_put(compile_cache, _compile_key(ctx.source), ctx.compiled,
                ctx.config)


@register_stage("simulate", "profile on the selected engine (online sink)")
def _stage_simulate(ctx: PipelineContext) -> None:
    config = ctx.config
    compiled = ctx.compiled
    assert compiled is not None
    if config.cache:
        cached = _tiered_get(
            extraction_cache, _extraction_key(ctx.source, config), config,
            thaw=lambda entry: ExtractionResult.from_entry(entry, compiled))
        if cached is not None:
            ctx.extraction = cached
            return
    ctx.extractor = ForayExtractor(compiled.checkpoint_map,
                                   config.filter_config)
    result = run_compiled(
        compiled,
        sinks=(ctx.extractor,),
        entry=config.entry,
        config=config.engine_config(),
    )
    # Pipeline results keep no engine: its memory pages would ride along
    # in every memoized, persisted or fanned-out extraction.
    ctx.run_result = replace(result, machine=None)


@register_stage("extract", "finalize + purge the FORAY model (steps 2-4)")
def _stage_extract(ctx: PipelineContext) -> None:
    if ctx.extraction is not None:
        return
    assert ctx.extractor is not None and ctx.run_result is not None
    assert ctx.compiled is not None
    extraction = ctx.extraction = ExtractionResult(
        ctx.extractor.finish(), ctx.compiled, ctx.run_result,
        ctx.extractor.executed_loops())
    if ctx.config.cache:
        _tiered_put(extraction_cache,
                    _extraction_key(ctx.source, ctx.config),
                    extraction, ctx.config, entry=extraction.entry())


def _cached_detector(source: str, compiled: CompiledProgram,
                     config: PipelineConfig) -> StaticAnalysisResult:
    """The static baseline detector's result, memoized on the compile node.

    The result refers to the program's own ``Symbol`` objects, which compare
    by identity: unpickled apart from its program it would match none of
    them, and the static analyzer would silently model nothing. So it is
    only ever persisted inside the compile entry, which its first fill
    republishes.
    """
    if compiled.detector is None:
        compiled.detector = detect(compiled.program)
        _tiered_put(compile_cache, _compile_key(source), compiled, config)
    return compiled.detector


@register_stage("analyze", "static baseline + Tables I-III metrics")
def _stage_analyze(ctx: PipelineContext) -> None:
    assert ctx.extraction is not None
    extraction = ctx.extraction
    static_result = _cached_detector(ctx.source, extraction.compiled,
                                     ctx.config)
    census = loop_census(ctx.name, ctx.source, extraction.executed_loops)
    table2 = table2_coverage(ctx.name, extraction.model, static_result)
    table3 = table3_behavior(ctx.name, extraction.model)
    ctx.report = WorkloadReport(ctx.name, extraction, static_result, census,
                                table2, table3)


@register_stage("validate", "cross-input scenario-matrix validation")
def _stage_validate(ctx: PipelineContext) -> None:
    """Replay the workload's other input scenarios against the model.

    No-ops unless ``config.validation.enabled`` and ``ctx.name`` resolves
    to a registered workload that declares a scenario matrix (ad-hoc
    sources have no scenarios to replay). The context source must match
    a declared scenario of the named workload — a modified source under
    a registry name would otherwise be silently "validated" against the
    pristine registry program.
    """
    config = ctx.config
    if not config.validation.enabled:
        return
    from repro.workloads.registry import find_workload

    workload = find_workload(ctx.name)
    if workload is None or len(workload.scenarios) < 2:
        return
    if not any(
        workload.source_for(scenario) == ctx.source
        for scenario in workload.scenarios
    ):
        return
    ctx.validation = validate_workload(ctx.name, config=config)


@register_stage("optimize", "Phase II: reuse graph, SPM allocation, sweep")
def _stage_optimize(ctx: PipelineContext) -> None:
    assert ctx.report is not None
    spm_config = ctx.config.spm
    energy_model = ctx.energy_model or spm_config.energy
    policy = AllocatorPolicy(spm_config.allocator)
    capacity = (ctx.spm_bytes if ctx.spm_bytes is not None
                else spm_config.spm_bytes)
    graph = ReuseGraph.from_model(ctx.report.model, energy_model)
    allocation = allocate_graph(graph, capacity, policy)
    transformed = transform_model(allocation)
    exploration: tuple[ExplorationPoint, ...] | None = None
    if spm_config.sweep:
        exploration = cached_exploration(ctx.source, ctx.config,
                                         ctx.report.model, policy=policy,
                                         energy=energy_model, graph=graph)
    ctx.flow = FullFlowResult(ctx.report, allocation, transformed,
                              energy_model, graph=graph,
                              exploration=exploration,
                              validation=ctx.validation)


@register_stage("hierarchy", "cache co-simulation: pure cache vs SPM+cache")
def _stage_hierarchy(ctx: PipelineContext) -> None:
    """Simulate the cache hierarchy for this run's source (gated).

    No-ops unless ``config.hierarchy.enabled``. Reuses the optimize
    stage's model and allocation, so the only extra work is a single
    engine run with two streaming cache sinks per swept configuration
    attached — and none at all when every cell is already in the
    hierarchy artifact cache.
    """
    config = ctx.config
    if not config.hierarchy.enabled:
        return
    assert ctx.report is not None and ctx.flow is not None
    reports = hierarchy_for_configs(
        ctx.name, ctx.source, config, config.hierarchy.configs(),
        scenario=_hier_scenario_label(ctx.name, ctx.source, config),
        spm_bytes=ctx.spm_bytes,
        energy=ctx.energy_model,
        model=ctx.report.model,
        allocation=ctx.flow.allocation,
    )
    ctx.hierarchy = reports
    ctx.flow.hierarchy = reports


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
        return emit_model(self.model)


def extract_foray_model(
    source: str,
    filter_config: FilterConfig | None = None,
    entry: str | None = None,
    max_steps: int | None = None,
    config: PipelineConfig | None = None,
) -> ExtractionResult:
    """Run Phase I (FORAY-GEN) on MiniC source text.

    The extractor is attached as a live trace sink (the paper's
    constant-space online mode).
    """
    merged = _merge_config(config, filter_config, max_steps, entry)
    ctx = run_stages(PipelineContext(source, merged), upto="extract")
    assert ctx.extraction is not None
    return ctx.extraction


@dataclass
class WorkloadReport:
    """Phase I results plus all paper metrics for one workload."""

    name: str
    extraction: ExtractionResult
    static_result: StaticAnalysisResult
    census: LoopCensus
    table2: ForayFormCoverage
    table3: MemoryBehavior

    @property
    def model(self) -> ForayModel:
        return self.extraction.model


def run_workload(
    name: str,
    source: str,
    filter_config: FilterConfig | None = None,
    max_steps: int | None = None,
    config: PipelineConfig | None = None,
) -> WorkloadReport:
    """Phase I + static baseline + Tables I/II/III metrics for one program."""
    merged = _merge_config(config, filter_config, max_steps)
    ctx = run_stages(PipelineContext(source, merged, name=name),
                     upto="analyze")
    assert ctx.report is not None
    return ctx.report


def _suite_worker(args: tuple[str, str, PipelineConfig]) -> WorkloadReport:
    name, source, config = args
    return run_workload(name, source, config=config)


def _publishing(worker: Callable, task):
    """Run one fan-out task in a pool process, then publish every open
    store's disk-cache counters: pool processes exit via ``os._exit``
    (no atexit), so a tally not flushed per task would be lost."""
    result = worker(task)
    for store in _stores.values():
        store.persist_counters()
    return result


def _fan_out(tasks: list, worker: Callable, jobs: int) -> list:
    """Run ``worker`` over ``tasks``, optionally in worker processes.

    The one fan-out machinery behind every matrix: ``jobs=0`` uses the
    CPU count, the pool is capped at the task count, and results come
    back in task order. Pool processes publish their disk-cache counters
    after every task, so the parent's ``cache[...]`` report counts them.
    """
    if jobs == 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(tasks)))
    if jobs == 1:
        return [worker(task) for task in tasks]

    import multiprocessing

    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        mp_context = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=mp_context) as executor:
        return list(executor.map(functools.partial(_publishing, worker),
                                 tasks))


def run_suite(
    names: tuple[str, ...] | None = None,
    filter_config: FilterConfig | None = None,
    jobs: int | None = None,
    config: PipelineConfig | None = None,
) -> list[WorkloadReport]:
    """Run the full mini-MiBench suite (the paper's six plus mpeg2).

    ``jobs > 1`` fans the workloads out over that many worker processes
    (``jobs=0`` uses the CPU count); results come back in suite order
    either way. ``jobs=None`` (the default) defers to ``config.jobs``;
    an explicit argument — including ``jobs=1`` to force a serial run —
    always wins over the config.
    """
    from repro.workloads.registry import get_workload, workload_names

    merged = _merge_config(config, filter_config)
    if jobs is None:
        jobs = merged.jobs
    selected = [get_workload(name) for name in (names or workload_names())]
    tasks = [(w.name, w.source, merged) for w in selected]
    return _fan_out(tasks, _suite_worker, jobs)


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
    config = config or PipelineConfig()
    report = run_workload(name, source, config=config)
    static = analyze_static(
        report.extraction.compiled.program, config.filter_config,
        detector_result=report.static_result, name=name, entry=config.entry)
    oracle = compare_models(report.model, static,
                            detector=report.static_result, name=name,
                            scenario=scenario)
    return StaticReport(name, scenario, static, oracle)


def _resolve_cell(
    name: str, scenario_name: str | None, config: PipelineConfig
) -> tuple[str, PipelineConfig, str]:
    """(source, run config, label) of one (workload x scenario) cell.
    ``None`` stands for the nominal source of a workload with no
    scenario matrix, labelled ``"-"``."""
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    if scenario_name is None:
        return workload.source, config, "-"
    scenario = workload.scenario(scenario_name)
    return (workload.source_for(scenario), _scenario_config(config, scenario),
            scenario.name)


def _static_cell_worker(
    args: tuple[str, str | None, PipelineConfig]
) -> StaticReport:
    """One (workload x scenario) oracle cell, fan-out ready."""
    name, scenario_name, config = args
    source, cell_config, label = _resolve_cell(name, scenario_name, config)
    return static_workload(name, source, config=cell_config, scenario=label)


def static_suite(
    names: tuple[str, ...] | None = None,
    jobs: int | None = None,
    config: PipelineConfig | None = None,
) -> list[StaticReport]:
    """The full static matrix: every (workload x scenario) cell runs the
    compile-time analyzer against the dynamic extraction and diffs the
    two models. Cells fan out over the shared worker-process machinery;
    results come back in matrix order (workloads in suite order, then
    scenarios)."""
    from repro.workloads.registry import get_workload, workload_names

    config = config or PipelineConfig()
    if jobs is None:
        jobs = config.jobs
    tasks: list[tuple[str, str | None, PipelineConfig]] = []
    for workload in (get_workload(n) for n in (names or workload_names())):
        if workload.scenarios:
            tasks.extend((workload.name, scenario_name, config)
                         for scenario_name in workload.scenario_names())
        else:
            tasks.append((workload.name, None, config))
    return _fan_out(tasks, _static_cell_worker, jobs)


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
    from repro.workloads.registry import get_workload, workload_names

    reports: list[LintReport] = []
    for workload in (get_workload(n) for n in (names or workload_names())):
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
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    #: The reuse-graph IR the allocation was selected over.
    graph: ReuseGraph | None = None
    #: Capacity sweep (only when ``SpmConfig.sweep`` is enabled).
    exploration: tuple[ExplorationPoint, ...] | None = None
    #: Cross-input stability (only when ``ValidationConfig.enabled``).
    validation: WorkloadValidation | None = None
    #: Cache co-simulation cells (only when ``HierarchyConfig.enabled``).
    hierarchy: tuple[HierarchyReport, ...] | None = None

    @property
    def energy_saving_nj(self) -> float:
        return self.allocation.total_benefit_nj


def full_flow(
    name: str,
    source: str,
    spm_bytes: int | None = None,
    filter_config: FilterConfig | None = None,
    energy_model: EnergyModel | None = None,
    config: PipelineConfig | None = None,
) -> FullFlowResult:
    """The complete design flow of the paper's Figure 3 (Phases I and II).

    ``spm_bytes`` overrides ``config.spm.spm_bytes`` when given (default
    4096 via :class:`SpmConfig`). Phase III (back-annotating the
    transformed model into the legacy code) is manual by design in the
    paper; the transformed model text returned here is the input a
    designer would use for it.
    """
    merged = _merge_config(config, filter_config)
    ctx = PipelineContext(source, merged, name=name, spm_bytes=spm_bytes,
                          energy_model=energy_model)
    # The hierarchy stage no-ops unless config.hierarchy.enabled, so a
    # default flow still ends at the optimize artifacts.
    run_stages(ctx, upto="hierarchy")
    assert ctx.flow is not None
    return ctx.flow


# ---------------------------------------------------------------------------
# Cross-input validation: the (workload x scenario) matrix
# ---------------------------------------------------------------------------


def _scenario_config(config: PipelineConfig, scenario) -> PipelineConfig:
    """The pipeline config that runs one input scenario."""
    return replace(config, input=scenario.input)


def _cached_compiled(source: str, config: PipelineConfig) -> CompiledProgram:
    """Compile + instrument ``source`` through the registered stages
    (one code path decides instrumentation and compile-cache policy)."""
    ctx = run_stages(PipelineContext(source, config), upto="instrument")
    assert ctx.compiled is not None
    return ctx.compiled


def validation_key(
    workload, profile, scenario, config: PipelineConfig
) -> str:
    """Cache key of one scenario-matrix cell (profile model x replay)."""
    profile_config = _scenario_config(config, profile)
    return _content_key(
        "validate",
        _extraction_key(workload.source_for(profile), profile_config),
        workload.source_for(scenario),
        scenario.input,
    )


def _replay_scenario(
    workload, profile, scenario, model: ForayModel, config: PipelineConfig
) -> ValidationReport:
    """Replay one scenario's trace against ``model``, scored online.

    The replay attaches a :class:`ValidationSink` directly to the engine
    (batched sink protocol), so the scenario trace is never materialized;
    finished reports are memoized in ``validation_cache``.
    """
    key = validation_key(workload, profile, scenario, config)
    if config.cache:
        cached = _tiered_get(validation_cache, key, config)
        if cached is not None:
            return cached
    compiled = _cached_compiled(workload.source_for(scenario), config)
    sink = ValidationSink(model, compiled.checkpoint_map)
    scenario_config = _scenario_config(config, scenario)
    run_compiled(
        compiled,
        sinks=(sink,),
        entry=config.entry,
        config=scenario_config.engine_config(),
    )
    report = sink.finish()
    if config.cache:
        _tiered_put(validation_cache, key, report, config)
    return report


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
    scenarios = list(workload.scenarios)
    if validation.scenarios:
        scenarios = [workload.scenario(name) for name in validation.scenarios]
    profile_name = validation.profile or scenarios[0].name
    try:
        profile = workload.scenario(profile_name)
    except KeyError:
        raise ValueError(
            f"workload {workload.name!r} declares no scenario "
            f"{profile_name!r} to profile on; known: "
            f"{', '.join(workload.scenario_names())}"
        ) from None
    scenarios = [profile] + [s for s in scenarios if s.name != profile.name]
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


def _validation_cell(workload, profile, scenario, model: ForayModel,
                     config: PipelineConfig) -> ScenarioValidation:
    """One (workload x scenario) matrix cell: ``scenario`` replayed
    against ``model``, the model extracted on ``profile``."""
    report = _replay_scenario(workload, profile, scenario, model, config)
    return ScenarioValidation(workload.name, scenario.name, profile.name,
                              config.engine, report)


def _validate_against(workload, scenarios: list, model: ForayModel,
                      config: PipelineConfig) -> WorkloadValidation:
    """Replay every scenario against ``model``, extracted on the first
    (profile) scenario, and assemble the workload's validation."""
    profile = scenarios[0]
    cells = [_validation_cell(workload, profile, scenario, model, config)
             for scenario in scenarios]
    return _assemble_validation(workload.name, profile.name, len(scenarios),
                                cells)


def _profile_worker(args: tuple[str, str, PipelineConfig]) -> ForayModel:
    """One workload's profile extraction, fan-out ready."""
    name, profile_name, config = args
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    return _profile_extraction(workload, workload.scenario(profile_name),
                               config).model


def _validation_cell_worker(
    args: tuple[str, str, str, PipelineConfig, ForayModel]
) -> ScenarioValidation:
    """One matrix cell, fan-out ready: the task carries its model."""
    name, profile_name, scenario_name, config, model = args
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    return _validation_cell(workload, workload.scenario(profile_name),
                            workload.scenario(scenario_name), model, config)


def _assemble_validation(
    name: str, profile_name: str, scenario_count: int,
    cells: list[ScenarioValidation],
) -> WorkloadValidation:
    self_cells = [c for c in cells if c.scenario == profile_name]
    cross = tuple(c for c in cells if c.scenario != profile_name)
    return WorkloadValidation(
        workload=name,
        profile=profile_name,
        scenario_count=scenario_count,
        self_validation=self_cells[0].report,
        cross=cross,
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
    jobs: int | None = None,
    config: PipelineConfig | None = None,
) -> list[WorkloadValidation]:
    """The full scenario matrix: every (workload x scenario) cell.

    Two fan-outs over the same worker-process machinery ``run_suite``
    uses: first one profile extraction per workload, then the replay
    cells, each task carrying its workload's model. Cells — not
    workloads — are the unit of the second, so ``jobs=N`` load-balances
    the ~3x-larger matrix. Results come back grouped per workload, in
    suite order. Like ``run_suite``, ``jobs=None`` defers to
    ``config.jobs`` and an explicit argument (``jobs=1`` included)
    always wins.
    """
    from repro.workloads.registry import get_workload, workload_names

    config = config or PipelineConfig()
    if jobs is None:
        jobs = config.jobs
    selected = [get_workload(n) for n in (names or workload_names())]
    plans = [(workload, _select_scenarios(workload, config.validation))
             for workload in selected]
    models = _fan_out(
        [(workload.name, scenarios[0].name, config)
         for workload, scenarios in plans],
        _profile_worker, jobs)
    tasks = [
        (workload.name, scenarios[0].name, scenario.name, config, model)
        for (workload, scenarios), model in zip(plans, models)
        for scenario in scenarios
    ]
    cells = _fan_out(tasks, _validation_cell_worker, jobs)

    results: list[WorkloadValidation] = []
    offset = 0
    for workload, scenarios in plans:
        group = cells[offset : offset + len(scenarios)]
        offset += len(scenarios)
        results.append(_assemble_validation(
            workload.name, scenarios[0].name, len(scenarios), group))
    return results


# ---------------------------------------------------------------------------
# Cache-hierarchy co-simulation: the (workload x scenario x config) matrix
# ---------------------------------------------------------------------------


def hierarchy_key(
    name: str,
    scenario: str,
    source: str,
    config: PipelineConfig,
    cache_config: CacheConfig,
    spm_bytes: int,
    policy: str,
    energy: EnergyModel,
) -> str:
    """Cache key of one hierarchy matrix cell.

    Built on the extraction key (source, engine, input ensemble, filter
    budget), so a cell is recomputed exactly when its underlying profile
    would be — plus every knob that shapes the comparison itself.
    """
    return _content_key(
        "hier",
        name,
        scenario,
        _extraction_key(source, config),
        cache_config,
        spm_bytes,
        policy,
        energy,
    )


def hierarchy_for_configs(
    name: str,
    source: str,
    config: PipelineConfig,
    cache_configs: tuple[CacheConfig, ...],
    scenario: str = "-",
    spm_bytes: int | None = None,
    energy: EnergyModel | None = None,
    model: ForayModel | None = None,
    allocation: Allocation | None = None,
) -> tuple[HierarchyReport, ...]:
    """Hierarchy matrix cells for one (source, scenario): pure cache vs
    SPM+cache under every configuration in ``cache_configs``.

    Extracts (or reuses) the FORAY model, selects an SPM allocation at
    ``spm_bytes`` under ``config.spm``'s policy, and runs the program
    **once** with two streaming :class:`CacheSink`\\ s per *uncached*
    configuration attached — the engine run (the expensive part) is
    shared across the whole cache-config sweep. The trace is never
    materialized; finished cells are memoized per configuration in
    ``hierarchy_cache`` (and the disk store, when configured), so a
    rerun only simulates when at least one configuration is cold.
    """
    energy = _resolve_energy(energy, config)
    policy = AllocatorPolicy(config.spm.allocator)
    capacity = (spm_bytes if spm_bytes is not None
                else config.spm.spm_bytes)
    reports: dict[CacheConfig, HierarchyReport] = {}
    missing: list[tuple[CacheConfig, str]] = []
    for cache_config in cache_configs:
        if cache_config in reports or any(
            cache_config == pending for pending, _key in missing
        ):
            continue  # duplicate spec: one cell serves all mentions
        key = hierarchy_key(name, scenario, source, config, cache_config,
                            capacity, policy.value, energy)
        if config.cache:
            cached = _tiered_get(hierarchy_cache, key, config)
            if cached is not None:
                reports[cache_config] = cached
                continue
        missing.append((cache_config, key))
    if missing:
        if allocation is None:
            if model is None:
                model = extract_foray_model(source, config=config).model
            graph = ReuseGraph.from_model(model, energy)
            allocation = allocate_graph(graph, capacity, policy)
        intervals = allocation_intervals(allocation)
        sink_pairs = [
            (CacheSink(CacheHierarchy(cache_config)),
             CacheSink(CacheHierarchy(cache_config), intervals))
            for cache_config, _key in missing
        ]
        compiled = _cached_compiled(source, config)
        run_compiled(
            compiled,
            sinks=tuple(sink for pair in sink_pairs for sink in pair),
            entry=config.entry,
            config=config.engine_config(),
        )
        for (cache_config, key), (pure, hybrid) in zip(missing, sink_pairs):
            report = build_hierarchy_report(
                name, scenario, cache_config, allocation,
                pure.finish(), hybrid.finish(), energy,
            )
            if config.cache:
                _tiered_put(hierarchy_cache, key, report, config)
            reports[cache_config] = report
    return tuple(reports[cache_config] for cache_config in cache_configs)


def _hier_scenario_label(name: str, source: str,
                         config: PipelineConfig) -> str:
    """The scenario name behind a (source, input) pair, or ``"-"``.

    Resolving the label from content keeps the stage entry point
    (``full_flow`` on a registry workload's nominal source) and the
    ``hier_suite`` cell worker on the *same* cache/store entries — both
    label the nominal run ``"nominal"`` instead of splitting it across
    a ``"-"`` and a ``"nominal"`` key for identical simulations.
    """
    from repro.workloads.registry import find_workload

    workload = find_workload(name)
    if workload is None:
        return "-"
    wanted_input = config.input or InputSpec()
    for scenario in workload.scenarios:
        if (scenario.input == wanted_input
                and workload.source_for(scenario) == source):
            return scenario.name
    return "-"


def _hier_scenarios(workload, hierarchy: HierarchyConfig) -> list[str | None]:
    """The scenario-axis subset of one workload's matrix cells.

    ``None`` stands for "the nominal source with the config's input" —
    used for workloads that declare no scenario matrix. Declared
    scenarios are taken in order, the nominal profiling scenario first.
    """
    if not workload.scenarios:
        return [None]
    count = (1 if hierarchy.max_scenarios is None
             else hierarchy.max_scenarios)
    return list(workload.scenario_names()[:count])


def _hier_cell_worker(
    args: tuple[str, str | None, tuple[CacheConfig, ...], PipelineConfig]
) -> tuple[HierarchyReport, ...]:
    """One (workload x scenario) simulation group, fan-out ready.

    All swept cache configurations of the group ride a single engine
    run (see :func:`hierarchy_for_configs`), so grouping by scenario —
    not by individual config — is what keeps a sweep from re-simulating
    the same trace once per configuration.
    """
    name, scenario_name, cache_configs, config = args
    source, cell_config, label = _resolve_cell(name, scenario_name, config)
    return hierarchy_for_configs(name, source, cell_config, cache_configs,
                                 scenario=label)


def hier_suite(
    names: tuple[str, ...] | None = None,
    jobs: int | None = None,
    config: PipelineConfig | None = None,
) -> list[HierarchyReport]:
    """The full hierarchy matrix: (workload x scenario x cache-config).

    (workload x scenario) groups are the unit of fan-out — ``jobs=N``
    load-balances them over the same worker-process machinery
    ``run_suite`` and ``validate_suite`` use, each group's cache-config
    sweep shares one engine run, and every finished cell is served from
    the hierarchy artifact store when warm (a repeat matrix performs
    zero simulations). Results come back flattened in matrix order:
    workloads in suite order, then scenarios, then cache configs.
    ``jobs=None`` defers to ``config.jobs``; an explicit argument
    (``jobs=1`` included) wins.
    """
    from repro.workloads.registry import get_workload, workload_names

    config = config or PipelineConfig()
    if jobs is None:
        jobs = config.jobs
    configs = config.hierarchy.configs()
    tasks: list[
        tuple[str, str | None, tuple[CacheConfig, ...], PipelineConfig]
    ] = []
    for workload in (get_workload(n) for n in (names or workload_names())):
        tasks.extend(
            (workload.name, scenario_name, configs, config)
            for scenario_name in _hier_scenarios(workload, config.hierarchy)
        )
    groups = _fan_out(tasks, _hier_cell_worker, jobs)
    return [report for group in groups for report in group]

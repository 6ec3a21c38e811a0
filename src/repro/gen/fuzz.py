"""Population-scale differential fuzzing over generated programs.

Every invariant the repo asserts on its seven hand-written workloads is
re-asserted here on ``--seeds N`` generated programs, per program:

``parity``
    The specialized fast path and the AST reference interpreter must
    agree on exit code, stdout, step/call counts and the whole trace
    stream: every access's pc, address, size and direction, and every
    checkpoint at its position in the access stream.
``ir``
    The structural bytecode verifier accepts the lowered + fused forms.
``lint``
    No error-severity linter findings; warnings are recorded as triage
    notes, not failures.
``static``
    The compile-time FORAY model agrees with the dynamic extraction on
    every modeled reference (contextual refusals count as the known
    FORAY gap, not disagreement).
``alloc``
    DP allocation benefit dominates both greedy policies at every
    capacity rung.
``traffic``
    Replaying the SPM-transformed program drops exactly the predicted
    main-memory traffic.
``transfer``
    The model extracted on the nominal input self-validates perfectly;
    cross-input replay accuracy is recorded as a population statistic.

The ``static``, ``alloc``, ``traffic`` and ``transfer`` checks share one
FORAY model: the pipeline's extraction
(:func:`repro.pipeline.extract_foray_model`) on the transfer check's
profile scenario, under the run's engine, trace block and filter. Each
program therefore pays for exactly one profiling run, and every check
judges the model the run's flags describe.

A check that is vacuous for a given program (empty model after the
purge, nothing buffered) reports ``skip`` with a reason — never a
silent pass. Failing programs are minimized by the subtree-deletion
shrinker and reported with their seed, so every crash is replayable
from ``(profile, seed)`` alone.

The hidden ``seeded-bug`` check deliberately corrupts the static model
before the oracle comparison; it exists so the harness can prove it
would catch, shrink and report a real VM/static divergence.

Each program's outcome is a node of the pipeline's artifact graph
(:func:`repro.pipeline._fuzz_outcome`, the ``fuzz`` store namespace).
Its key covers the generated source template (which embeds generator
version + profile + seed), the checks, shrinking and every
``PipelineConfig`` field an outcome can depend on, so warm reruns skip
satisfied cells and can never serve an outcome across a generator or
config change.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from repro.gen.build import GenProgram, build_ir, gen_name
from repro.gen.profiles import get_profile
from repro.gen.render import RenderedProgram, render_ir
from repro.gen.shrink import shrink_ir
from repro.lang.errors import MiniCError
from repro.lang.lint import lint_program, lint_source
from repro.pipeline import (
    ExtractionResult,
    PipelineConfig,
    _compiled,
    _fan_out,
    _fuzz_outcome,
    _profile_extraction,
    _select_scenarios,
    _validate_against,
)
from repro.sim.machine import EngineConfig, compile_program, run_compiled
from repro.sim.memory import GLOBAL_BASE, HEAP_BASE
from repro.sim.trace import ColumnBlock, StreamRecorder
from repro.sim.verify import verify_compiled
from repro.spm.allocator import allocate_graph
from repro.spm.graph import ReuseGraph
from repro.spm.transform import emit_replay_source, emit_transformed_source
from repro.staticfar.analyze import analyze_static
from repro.staticfar.oracle import compare_models

#: The default check battery, in execution order.
FUZZ_CHECKS = ("parity", "ir", "lint", "static", "alloc", "traffic",
               "transfer")

#: Deliberate-divergence check (never in the default set): corrupts the
#: static model, then demands the oracle notice.
SEEDED_BUG_CHECK = "seeded-bug"

KNOWN_CHECKS = FUZZ_CHECKS + (SEEDED_BUG_CHECK,)

#: Engine configurations whose observable behaviour must be identical.
PARITY_CONFIGS = (
    ("specialized", EngineConfig(engine="bytecode")),
    ("ast", EngineConfig(engine="ast")),
)

#: SPM capacity rungs for the allocator-dominance check.
ALLOC_CAPACITIES = (256, 1024, 4096)


@dataclass(frozen=True)
class CheckOutcome:
    """One check on one program."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass(frozen=True)
class ProgramOutcome:
    """The full battery on one generated program."""

    spec: str
    profile: str
    seed: int
    status: str  # "pass" | "fail" | "error"
    checks: tuple[CheckOutcome, ...] = ()
    source_lines: int = 0
    #: Mean cross-input replay accuracy (None when transfer skipped).
    transfer_accuracy: float | None = None
    #: Name of the first failing check (shrink target).
    failing_check: str = ""
    #: Minimized reproducer (failures only; replayable from the seed).
    shrunk_source: str = ""
    shrunk_lines: int = 0
    #: Generation/harness crash detail (status == "error").
    error: str = ""
    #: Served from the fuzz store namespace on a warm rerun.
    cached: bool = False


@dataclass
class FuzzReport:
    """One fuzzing run over a seed range."""

    profile: str
    checks: tuple[str, ...]
    outcomes: list[ProgramOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[ProgramOutcome]:
        return [o for o in self.outcomes if o.status == "fail"]

    @property
    def errors(self) -> list[ProgramOutcome]:
        return [o for o in self.outcomes if o.status == "error"]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    def check_counts(self) -> dict[str, dict[str, int]]:
        """``{check: {pass: n, fail: n, skip: n}}`` over the population."""
        counts: dict[str, dict[str, int]] = {
            name: {"pass": 0, "fail": 0, "skip": 0} for name in self.checks
        }
        for outcome in self.outcomes:
            for check in outcome.checks:
                bucket = counts.setdefault(
                    check.name, {"pass": 0, "fail": 0, "skip": 0})
                bucket[check.status] = bucket.get(check.status, 0) + 1
        return counts

    def transfer_stats(self) -> tuple[int, float, float] | None:
        """(measured programs, min, mean) of cross-input accuracy."""
        values = [o.transfer_accuracy for o in self.outcomes
                  if o.transfer_accuracy is not None]
        if not values:
            return None
        return len(values), min(values), sum(values) / len(values)


class _CheckContext:
    """Shared per-program artifacts, computed lazily and at most once.

    The compiled program is the pipeline's compile node and the model
    comes from its extraction node, so the battery's checks and the
    transfer check's replays share one parse, lowering and
    specialization per source and one profiling run per program. With
    ``detector`` (a static check is selected) the compile node is built
    carrying the static baseline detector's result, before the
    extraction reads it, so a cold run writes it once.
    """

    def __init__(self, rendered: RenderedProgram, config: PipelineConfig,
                 detector: bool = False):
        self.rendered = rendered
        self.config = config
        self.source = rendered.workload.source
        self.detector = detector
        self._compiled = None
        self._scenarios: list | None = None
        self._extraction: ExtractionResult | None = None
        self._graph: ReuseGraph | None = None

    @property
    def compiled(self):
        if self._compiled is None:
            self._compiled = _compiled(self.source, self.config,
                                       detector=self.detector)
        return self._compiled

    @property
    def scenarios(self) -> list:
        """The transfer check's scenarios, profile first."""
        if self._scenarios is None:
            self._scenarios = _select_scenarios(self.rendered.workload,
                                                self.config.validation)
        return self._scenarios

    @property
    def extraction(self) -> ExtractionResult:
        """The pipeline's extraction on the profile scenario, under the
        run's config."""
        if self._extraction is None:
            if self.detector:
                # Build the compile node with the detector's result
                # before the extraction builds it without: the profile
                # scenario renders the nominal source.
                _ = self.compiled
            self._extraction = _profile_extraction(
                self.rendered.workload, self.scenarios[0], self.config)
        return self._extraction

    @property
    def graph(self) -> ReuseGraph:
        if self._graph is None:
            self._graph = ReuseGraph.from_model(self.extraction.model)
        return self._graph


class _GlobalTrafficCounter:
    """Trace sink counting accesses in the global (main-memory) range."""

    def __init__(self) -> None:
        self.count = 0

    def emit_columns(self, block: ColumnBlock) -> None:
        self.count += sum(GLOBAL_BASE <= addr < HEAP_BASE
                          for addr in block.lists()[1])


def _check_parity(ctx: _CheckContext) -> CheckOutcome:
    baseline_name = baseline = None
    for name, config in PARITY_CONFIGS:
        # Block cuts may differ between tiers; the streams may not.
        stream = StreamRecorder()
        result = run_compiled(ctx.compiled, sinks=(stream,), config=config)
        signature = (result.exit_code, result.stdout, result.stats.steps,
                     result.stats.calls, stream.flat, stream.checkpoints)
        if baseline is None:
            baseline_name, baseline = name, signature
        elif signature != baseline:
            fields = ("exit_code", "stdout", "steps", "calls", "accesses",
                      "checkpoints")
            diverged = [f for f, a, b in zip(fields, signature, baseline)
                        if a != b]
            return CheckOutcome(
                "parity", "fail",
                f"{name} diverges from {baseline_name} on "
                f"{', '.join(diverged)}")
    return CheckOutcome("parity", "pass")


def _check_ir(ctx: _CheckContext) -> CheckOutcome:
    try:
        stats = verify_compiled(ctx.compiled, raise_on_error=True)
    except Exception as error:
        return CheckOutcome("ir", "fail", str(error)[:300])
    return CheckOutcome(
        "ir", "pass", f"{stats.fused_instructions} fused instructions")


def _check_lint(ctx: _CheckContext) -> CheckOutcome:
    try:
        findings = lint_program(ctx.compiled.program)
    except MiniCError:
        # The front end rejects the source: lint_source reports that as
        # its L100 finding.
        findings = lint_source(ctx.source,
                               filename=ctx.rendered.workload.name)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        return CheckOutcome(
            "lint", "fail",
            "; ".join(str(f) for f in errors[:3])[:300])
    if findings:
        return CheckOutcome(
            "lint", "pass", f"{len(findings)} warnings triaged")
    return CheckOutcome("lint", "pass")


def _static_report(ctx: _CheckContext, corrupt: bool = False):
    extraction = ctx.extraction
    compiled = _compiled(extraction.compiled.source, ctx.config,
                         detector=True)
    detector = compiled.detector
    static = analyze_static(compiled.program, ctx.config.filter_config,
                            detector_result=detector,
                            name=ctx.rendered.workload.name,
                            entry=ctx.config.entry)
    if corrupt:
        refs = list(static.unfiltered_references)
        if not refs:
            return None
        refs[0] = dataclasses.replace(refs[0],
                                      exec_count=refs[0].exec_count + 1)
        static = dataclasses.replace(static, unfiltered_references=refs)
    return compare_models(extraction.model, static, detector=detector,
                          name=ctx.rendered.workload.name)


def _check_static(ctx: _CheckContext) -> CheckOutcome:
    report = _static_report(ctx)
    if report.ok:
        gap = len(report.foray_gap)
        detail = (f"{report.matched} matched"
                  + (f", {gap} contextual refusals" if gap else ""))
        return CheckOutcome("static", "pass", detail)
    return CheckOutcome("static", "fail",
                        "; ".join(report.diff_lines()[:3])[:400])


def _check_seeded_bug(ctx: _CheckContext) -> CheckOutcome:
    """Corrupt one static exec count: the oracle MUST flag it. This
    check therefore *fails* on healthy programs with modeled refs — it
    exists to prove the harness catches and shrinks real divergence."""
    report = _static_report(ctx, corrupt=True)
    if report is None:
        return CheckOutcome(SEEDED_BUG_CHECK, "skip",
                            "no static references to corrupt")
    if report.ok:
        return CheckOutcome(
            SEEDED_BUG_CHECK, "skip",
            "corrupted reference not among matched refs")
    return CheckOutcome(
        SEEDED_BUG_CHECK, "fail",
        "seeded static/dynamic mismatch detected (intentional): "
        + "; ".join(report.diff_lines()[:1])[:200])


def _check_alloc(ctx: _CheckContext) -> CheckOutcome:
    graph = ctx.graph
    if not graph.nodes:
        return CheckOutcome("alloc", "skip", "no buffer candidates")
    for capacity in ALLOC_CAPACITIES:
        dp = allocate_graph(graph, capacity, "dp").total_benefit_nj
        for policy in ("greedy", "greedy-benefit"):
            benefit = allocate_graph(graph, capacity,
                                     policy).total_benefit_nj
            if dp < benefit - 1e-9:
                return CheckOutcome(
                    "alloc", "fail",
                    f"dp benefit {dp:.3f} < {policy} {benefit:.3f} "
                    f"at {capacity} B")
    return CheckOutcome("alloc", "pass",
                        f"{len(graph.nodes)} candidate nodes")


def _check_traffic(ctx: _CheckContext) -> CheckOutcome:
    model = ctx.extraction.model
    allocation = allocate_graph(ctx.graph, ALLOC_CAPACITIES[-1])
    transformed = emit_transformed_source(allocation, model)
    if not transformed.buffered:
        return CheckOutcome("traffic", "skip", "nothing buffered")
    counts = []
    for source in (emit_replay_source(model), transformed.source):
        counter = _GlobalTrafficCounter()
        run_compiled(compile_program(source), sinks=(counter,),
                     config=EngineConfig())
        counts.append(counter.count)
    drop = counts[0] - counts[1]
    if drop != transformed.predicted_drop:
        return CheckOutcome(
            "traffic", "fail",
            f"measured drop {drop} != predicted "
            f"{transformed.predicted_drop}")
    return CheckOutcome("traffic", "pass", f"drop {drop} as predicted")


def _check_transfer(ctx: _CheckContext) -> CheckOutcome:
    validation = _validate_against(ctx.rendered.workload, ctx.scenarios,
                                   ctx.extraction.model, ctx.config)
    self_validation = validation.self_validation
    if self_validation.total_checked == 0:
        return CheckOutcome("transfer", "skip",
                            "model empty after the purge")
    if self_validation.full_accuracy != 1.0:
        return CheckOutcome(
            "transfer", "fail",
            f"self-validation full accuracy "
            f"{self_validation.full_accuracy:.4f} != 1.0")
    measured = [cell for cell in validation.cross
                if cell.report.total_checked > 0]
    if not measured:
        return CheckOutcome(
            "transfer", "pass",
            "self-validation exact; replays vacuous (accuracy "
            "unmeasured)")
    mean = (sum(c.report.overall_accuracy for c in measured)
            / len(measured))
    return CheckOutcome(
        "transfer", "pass",
        f"cross accuracy mean {mean:.4f} over {len(measured)} replays")


#: Every known check by name, each a function of the program's context.
_CHECKS = {
    "parity": _check_parity,
    "ir": _check_ir,
    "lint": _check_lint,
    "static": _check_static,
    "alloc": _check_alloc,
    "traffic": _check_traffic,
    "transfer": _check_transfer,
    SEEDED_BUG_CHECK: _check_seeded_bug,
}


def _transfer_accuracy(outcome: CheckOutcome) -> float | None:
    if outcome.name != "transfer" or outcome.status != "pass":
        return None
    marker = "cross accuracy mean "
    if marker not in outcome.detail:
        return None
    try:
        return float(outcome.detail[len(marker):].split()[0])
    except ValueError:  # pragma: no cover - formatting is ours
        return None


def fuzz_program(
    profile_name: str,
    seed: int,
    checks: tuple[str, ...] = FUZZ_CHECKS,
    shrink: bool = True,
    config: PipelineConfig | None = None,
) -> ProgramOutcome:
    """Generate one program and run the differential battery on it."""
    config = config or PipelineConfig()
    for check in checks:
        if check not in KNOWN_CHECKS:
            raise ValueError(f"unknown fuzz check {check!r}; known: "
                             f"{', '.join(KNOWN_CHECKS)}")
    spec = gen_name(profile_name, seed)
    profile = get_profile(profile_name)
    try:
        ir = build_ir(seed, profile)
        rendered = render_ir(ir, profile)
    except Exception as error:
        return ProgramOutcome(
            spec=spec, profile=profile_name, seed=seed, status="error",
            error=f"generation failed: {type(error).__name__}: "
                  f"{str(error)[:300]}")

    return _fuzz_outcome(
        rendered.workload.source_template or rendered.workload.source,
        checks, shrink, config,
        lambda: _fuzz_rendered(spec, profile_name, seed, ir, rendered,
                               checks, shrink, config))


def _fuzz_rendered(
    spec: str,
    profile_name: str,
    seed: int,
    ir: GenProgram,
    rendered: RenderedProgram,
    checks: tuple[str, ...],
    shrink: bool,
    config: PipelineConfig,
) -> ProgramOutcome:
    detector = "static" in checks or SEEDED_BUG_CHECK in checks
    ctx = _CheckContext(rendered, config, detector)
    results: list[CheckOutcome] = []
    transfer = None
    try:
        for name in checks:
            result = _CHECKS[name](ctx)
            results.append(result)
            if transfer is None:
                transfer = _transfer_accuracy(result)
    except Exception as error:
        return ProgramOutcome(
            spec=spec, profile=profile_name, seed=seed, status="error",
            checks=tuple(results),
            source_lines=rendered.workload.source.count("\n"),
            error=f"harness crash in check: {type(error).__name__}: "
                  f"{str(error)[:300]}")

    failing = next((r for r in results if r.status == "fail"), None)
    source_lines = rendered.workload.source.count("\n")
    if failing is None:
        return ProgramOutcome(
            spec=spec, profile=profile_name, seed=seed, status="pass",
            checks=tuple(results), source_lines=source_lines,
            transfer_accuracy=transfer)

    shrunk_source = ""
    shrunk_lines = 0
    if shrink:
        def still_fails(candidate: RenderedProgram) -> bool:
            return _CHECKS[failing.name](
                _CheckContext(candidate, config, detector)).status == "fail"

        result = shrink_ir(ir, still_fails)
        shrunk_source = result.source
        shrunk_lines = shrunk_source.count("\n")
    return ProgramOutcome(
        spec=spec, profile=profile_name, seed=seed, status="fail",
        checks=tuple(results), source_lines=source_lines,
        transfer_accuracy=transfer, failing_check=failing.name,
        shrunk_source=shrunk_source, shrunk_lines=shrunk_lines)


def run_fuzz(
    profile_name: str = "small",
    seeds: int = 100,
    seed_start: int = 0,
    checks: tuple[str, ...] = FUZZ_CHECKS,
    shrink: bool = True,
    config: PipelineConfig | None = None,
) -> FuzzReport:
    """Fuzz ``seeds`` consecutive programs of one profile.

    Programs fan out over ``config.jobs`` worker processes through the
    same machinery ``run_suite`` uses.
    """
    config = config or PipelineConfig()
    get_profile(profile_name)  # helpful error before any work
    outcomes = _fan_out(
        [functools.partial(fuzz_program, profile_name, seed, tuple(checks),
                           shrink, config)
         for seed in range(seed_start, seed_start + seeds)],
        config.jobs)
    return FuzzReport(profile=profile_name, checks=tuple(checks),
                      outcomes=outcomes)

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``extract FILE``
    Run Phase I on a MiniC source file and print the FORAY model
    (optionally the annotated source and hints).

``suite [NAMES...]``
    Run the mini-MiBench evaluation and print Tables I–III plus the
    headline metric.

``static [NAMES...]``
    Compile-time FORAY analysis over the (workload × scenario) matrix:
    build the static affine-reuse model from the AST alone, extract the
    dynamic model, and diff the two through the differential oracle
    (exact agreement on every matched reference, no silent gaps, no
    phantoms, DP-allocation parity). Prints the Table II-style coverage
    table (``--json`` for the machine-readable payload) and exits
    non-zero with a readable diff report on any disagreement.

``lint [NAMES...]``
    MiniC semantic linter over every (workload × scenario) source (or
    arbitrary files via ``--file``): definite assignment before use,
    static array bounds, dead stores, unused variables/parameters,
    constant branch conditions and zero-trip/non-terminating loops —
    driven by the same dataflow solver the fusion pass and the IR
    verifier use. Stable rule codes (L1xx errors, L2xx warnings),
    ``--json`` payload, non-zero exit on any error-severity finding.

``gen [--seeds N --profile SIZE --check NAME,... --jobs K]``
    Population-scale differential fuzzing: generate ``--seeds``
    consecutive seeded MiniC programs (``--profile small|medium|large``
    sets the size envelope) and run the differential check battery on
    each — engine parity, IR verification, lint, static-oracle
    agreement, allocator dominance, SPM traffic prediction, cross-input
    transfer. The model-based checks share the one profiling run the
    pipeline extracts under the run's flags (``--nexec``, ``--nloc``,
    ``--engine``, ``--trace-block``). Failing programs are minimized by
    the subtree-deletion shrinker and reported with their replayable
    seed. ``--check``
    restricts the battery (the hidden ``seeded-bug`` check plants a
    static-model corruption to prove the harness catches divergence);
    ``--json`` emits the strict-JSON report. Exits non-zero on any
    check failure or harness error. Generated programs are also
    addressable as ``gen:<profile>:<seed>`` by every workload-resolving
    command.

``figures``
    Reproduce all paper figure examples.

``... --verify-ir``
    Structurally verify the lowered and fused bytecode of every program
    before running it (register defined-before-use, jump targets,
    superinstruction decode, checkpoint ids). The test suite enables
    this unconditionally via ``REPRO_VERIFY_IR=1``.

``spm FILE``
    Run the full Phase I+II flow on a source file and print the
    transformed FORAY model and the capacity sweep. ``--allocator``
    selects the buffer-selection policy (exact DP or a greedy ranking);
    ``--sweep`` takes an optional comma-separated capacity ladder.

``suite --spm``
    Append the per-workload SPM capacity/energy frontier to the tables.

``validate [NAMES...]``
    Cross-input validation over each workload's input-scenario matrix:
    extract the model once, on the profile scenario, replay every
    scenario against it, and print per-scenario reports plus the
    stability table. Exits non-zero when a model fails the gate
    (full references must self-validate at 100%; ``--threshold`` adds a
    minimum cross-input accuracy).

``suite --validate``
    Append the cross-input stability table to the suite tables
    (``--scenarios N`` trims each workload's matrix to its first N
    scenarios; the same gate sets the exit code).

``hier [NAMES...]``
    Cache-hierarchy co-simulation: stream every workload's trace through
    a configurable set-associative cache (``--line/--sets/--ways``, LRU,
    write-back or ``--write-through``, optional ``--l2 SETSxWAYSxLINE``)
    twice — once pure, once with the SPM allocation's address intervals
    bypassing the cache — and print the energy/miss-rate comparison.
    ``--sweep`` fans extra cache configs per cell and ``--scenarios N``
    widens the matrix over each workload's input scenarios.

``suite --hier``
    Append the memory-hierarchy comparison to the suite tables
    (``--hier-sweep`` sweeps cache configs, ``--scenarios N`` widens the
    scenario axis; cells are persisted in the ``hierarchy`` store
    namespace, so warm reruns simulate nothing).

``suite/validate/hier --json``
    Emit the run's report as machine-readable JSON on stdout instead of
    the human tables (exit codes and stderr counters are unchanged).

``cache stats|clear|path``
    Inspect or wipe the disk-backed artifact store. Pipeline commands
    persist their artifacts there by default (``--cache-dir DIR``
    overrides the location, ``$REPRO_CACHE_DIR`` sets the default,
    ``--no-disk-cache`` keeps a run memory-only), so repeat invocations
    and ``--jobs`` worker processes share compilation, simulation,
    extraction, sweep and validation results. ``suite``, ``validate``,
    ``hier``, ``static`` and ``gen`` print the command's per-namespace
    hit/miss counters to stderr, worker processes' included (stdout
    stays byte-identical to a cache-less run); every command adds its
    counters to the store's tally, which ``cache stats`` prints.

Start-up
--------

A process loads what its command runs. The modules imported here hold
the parser's constants and import little themselves; each ``cmd_*``
handler imports what it runs, so ``--help`` never loads the pipeline
and a run served from the artifact store never loads the engines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import TYPE_CHECKING

from repro.cachesim.config import (
    DEFAULT_CACHE_SWEEP,
    CacheConfig,
    parse_cache_spec,
)
from repro.sim.machine import DEFAULT_ENGINE, ENGINES
from repro.sim.trace import MAX_TRACE_BLOCK
from repro.spm.allocator import ALLOCATOR_POLICIES, AllocatorPolicy
from repro.spm.explore import DEFAULT_CAPACITIES
from repro.store import (
    NAMESPACES,
    SCHEMA_VERSION,
    ArtifactStore,
    default_cache_dir,
    record_store_counters,
    reset_store_counters,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.foray.filters import FilterConfig
    from repro.pipeline import (
        HierarchyConfig,
        PipelineConfig,
        SpmConfig,
        ValidationConfig,
    )
    from repro.spm.energy import EnergyModel


def _add_filter_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nexec", type=int, default=20,
                        help="step-4 minimum executions (paper: 20)")
    parser.add_argument("--nloc", type=int, default=10,
                        help="step-4 minimum distinct locations (paper: 10)")


def _trace_block(text: str) -> int:
    """``--trace-block``: a block holds at least one access, and engines
    reject blocks above ``MAX_TRACE_BLOCK``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("at least 1 access per block")
    if value > MAX_TRACE_BLOCK:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_TRACE_BLOCK} accesses per block")
    return value


def _jobs(text: str) -> int:
    """``--jobs``: a worker-process count, 0 meaning the CPU count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "at least 0 worker processes (0 = CPU count)")
    return value


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE,
                        help="execution engine (default: %(default)s)")
    parser.add_argument("--trace-block", type=_trace_block, default=None,
                        metavar="N",
                        help="accesses per columnar trace block "
                             "(default: engine default)")
    parser.add_argument("--verify-ir", action="store_true",
                        help="structurally verify the lowered and fused "
                             "bytecode before every run")
    parser.add_argument("--no-cache", action="store_true",
                        help="reuse no simulated artifact and skip the "
                             "disk store (compiled programs are still "
                             "shared within the process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk artifact store shared across processes "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="keep the artifact cache in-process only")


def _add_spm_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--allocator", choices=ALLOCATOR_POLICIES,
                        default=AllocatorPolicy.DP.value,
                        help="buffer-selection policy (default: %(default)s)")
    parser.add_argument("--energy", default=None, metavar="KEY=NJ,...",
                        help="override per-access energies, e.g. "
                             "main_read_nj=5.2,spm_read_nj=0.1 "
                             "(fields of EnergyModel; values in nJ)")


def _add_hier_args(parser: argparse.ArgumentParser,
                   sweep_flag: str = "--sweep") -> None:
    """Cache-hierarchy flags (``sweep_flag`` avoids colliding with the
    spm command's capacity-ladder ``--sweep``)."""
    parser.add_argument("--line", type=int, default=32, metavar="BYTES",
                        help="cache line size (default: %(default)s)")
    parser.add_argument("--sets", type=int, default=64,
                        help="number of cache sets (default: %(default)s)")
    parser.add_argument("--ways", type=int, default=2,
                        help="set associativity (default: %(default)s)")
    parser.add_argument("--write-through", action="store_true",
                        help="write-through/no-write-allocate instead of "
                             "write-back/write-allocate")
    parser.add_argument("--l2", default=None, metavar="SPEC",
                        help="add a second level, e.g. 256x4x64 "
                             "(SETSxWAYSxLINE[wt])")
    parser.add_argument(sweep_flag, dest="cache_sweep", nargs="?",
                        const="default", metavar="SPEC,SPEC,...",
                        help="sweep extra cache configs per cell "
                             "(default ladder when given without a value)")


def _add_json_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report on "
                             "stdout instead of the human tables")


def _filter_from(args) -> FilterConfig:
    from repro.foray.filters import FilterConfig

    return FilterConfig(nexec=args.nexec, nloc=args.nloc)


def _energy_from(args) -> EnergyModel:
    """Build the energy model from ``--energy KEY=NJ,...`` overrides.

    Unknown fields and non-numeric values exit cleanly, and the model's
    own validation rejects negative or NaN energies — a malformed
    override fails loudly instead of producing nonsense tables.
    """
    from repro.spm.energy import EnergyModel

    text = getattr(args, "energy", None)
    if not text:
        return EnergyModel()
    known = {field.name for field in dataclasses.fields(EnergyModel)}
    overrides: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise SystemExit(
                f"invalid energy override {part!r}; known fields: "
                f"{', '.join(sorted(known))}"
            )
        try:
            overrides[key] = float(value)
        except ValueError:
            raise SystemExit(
                f"invalid energy override {part!r}: {value!r} is not a "
                "number"
            ) from None
    try:
        return EnergyModel(**overrides)
    except ValueError as error:
        raise SystemExit(f"invalid energy override: {error}") from None


def _parse_ladder(text: str | None) -> tuple[int, ...]:
    from repro.pipeline import normalize_ladder

    if not text or text == "default":
        return DEFAULT_CAPACITIES
    try:
        ladder = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"invalid capacity ladder {text!r}") from None
    # A 0-byte SPM is not a sweep point, and equivalent ladders must not
    # fragment the exploration cache: reject non-positive capacities and
    # return the canonical (sorted, deduplicated) form.
    if not ladder or any(capacity <= 0 for capacity in ladder):
        raise SystemExit(f"invalid capacity ladder {text!r}")
    return normalize_ladder(ladder)


def _spm_config_from(args) -> SpmConfig:
    from repro.pipeline import SpmConfig

    return SpmConfig(
        spm_bytes=getattr(args, "spm_bytes", 4096),
        capacities=_parse_ladder(getattr(args, "sweep", None)),
        allocator=getattr(args, "allocator", AllocatorPolicy.DP.value),
        energy=_energy_from(args),
        sweep=getattr(args, "sweep", None) is not None
        or getattr(args, "spm", False),
    )


def _hier_config_from(args, enabled: bool) -> HierarchyConfig:
    from repro.pipeline import HierarchyConfig

    # Specs are parsed (and rejected loudly) even when --hier is off:
    # `suite --hier-sweep bogus` without --hier must fail like a bad
    # --sweep ladder does, not silently drop the flag.
    try:
        l2_text = getattr(args, "l2", None)
        base = CacheConfig(
            line_bytes=getattr(args, "line", 32),
            sets=getattr(args, "sets", 64),
            ways=getattr(args, "ways", 2),
            write_back=not getattr(args, "write_through", False),
            l2=parse_cache_spec(l2_text) if l2_text else None,
        )
        sweep_text = getattr(args, "cache_sweep", None)
        if sweep_text is None:
            sweep: tuple[CacheConfig, ...] = ()
        elif sweep_text == "default":
            sweep = DEFAULT_CACHE_SWEEP
        else:
            sweep = tuple(
                parse_cache_spec(part)
                for part in sweep_text.split(",") if part.strip()
            )
            if not sweep:
                raise ValueError(f"empty cache sweep {sweep_text!r}")
    except ValueError as error:
        raise SystemExit(f"hier: {error}") from None
    # The hier command spells the scenario axis --scenarios (its own
    # dest); on `suite --hier` the validation-style --scenarios widens
    # the hierarchy matrix too, so the two appended matrices stay in
    # step with one flag.
    max_scenarios = getattr(args, "hier_scenarios", None)
    if max_scenarios is None:
        max_scenarios = getattr(args, "scenarios", None)
    if enabled and max_scenarios is not None and max_scenarios < 1:
        raise SystemExit(
            f"hier: --scenarios must be >= 1, got {max_scenarios}"
        )
    return HierarchyConfig(cache=base, sweep=sweep,
                           max_scenarios=max_scenarios if enabled else None)


def _add_validation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenarios", type=int, default=None, metavar="N",
                        help="limit each workload's validation matrix to "
                             "its first N scenarios (N >= 2: the profile "
                             "plus at least one replay; default: all "
                             "declared) — with --hier, also widens the "
                             "hierarchy matrix to N scenarios")
    parser.add_argument("--profile", default=None, metavar="SCENARIO",
                        help="extract the model on this scenario "
                             "(default: each workload's nominal scenario)")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="minimum acceptable cross-input accuracy "
                             "(exit 1 below it; default: %(default)s)")


def _validation_config_from(args) -> ValidationConfig:
    from repro.pipeline import ValidationConfig

    return ValidationConfig(
        profile=getattr(args, "profile", None),
        max_scenarios=getattr(args, "scenarios", None),
        threshold=getattr(args, "threshold", 0.0),
    )


def _cache_dir_from(args) -> str | None:
    """The disk-store root for a run: an explicit ``--cache-dir`` wins,
    ``--no-disk-cache`` disables the tier, otherwise the environment
    default applies (CLI invocations are cross-process by nature, so the
    disk tier is on by default)."""
    if getattr(args, "no_disk_cache", False):
        return None
    return getattr(args, "cache_dir", None) or default_cache_dir()


def _config_from(args) -> PipelineConfig:
    from repro.pipeline import PipelineConfig

    trace_block = getattr(args, "trace_block", None)
    return PipelineConfig(
        engine=getattr(args, "engine", DEFAULT_ENGINE),
        jobs=getattr(args, "jobs", 1),
        cache=not getattr(args, "no_cache", False),
        cache_dir=_cache_dir_from(args),
        **({"trace_block": trace_block} if trace_block is not None else {}),
        filter_config=_filter_from(args),
        spm=_spm_config_from(args),
        validation=_validation_config_from(args),
        hierarchy=_hier_config_from(args, getattr(args, "hier", False)),
        verify_ir=getattr(args, "verify_ir", False),
    )


def cmd_extract(args) -> int:
    from repro.foray.emitter import emit_model
    from repro.foray.hints import inlining_hints
    from repro.lang.printer import to_source
    from repro.pipeline import extract_foray_model

    source = open(args.file).read()
    result = extract_foray_model(source, config=_config_from(args))
    if args.annotated:
        print("/* annotated source */")
        print(to_source(result.compiled.program))
    print(emit_model(result.model))
    if args.hints:
        for hint in inlining_hints(result.model, result.compiled.program):
            print("hint:", hint.describe())
    stats = result.model.trace_stats
    print(
        f"/* {len(result.model.references)} references, "
        f"{result.model.loop_count} loops, "
        f"{stats.total_accesses} accesses profiled */"
    )
    return 0


def _report_cache_counters(config: PipelineConfig) -> None:
    """Print this command's disk-cache hit/miss counters, ``--jobs``
    worker processes' included (they hand theirs back with their
    results). Counters go to *stderr* so stdout (the tables) stays
    byte-identical whether the disk cache is on, off, cold or warm."""
    from repro.pipeline import store_for

    store = store_for(config)
    if store is None:
        return
    counters = store.session_counters()
    for namespace in NAMESPACES:
        counts = counters.get(namespace, {})
        print(f"cache[{namespace}]: {counts.get('hits', 0)} hits, "
              f"{counts.get('misses', 0)} misses, "
              f"{counts.get('stores', 0)} stored", file=sys.stderr)
    print(f"cache dir: {store.path}", file=sys.stderr)


def cmd_suite(args) -> int:
    from repro.analysis.report import (
        format_hier_table,
        format_spm_frontier,
        format_stability_table,
        format_table1,
        format_table2,
        format_table3,
        summarize_headline,
    )
    from repro.pipeline import cached_exploration, run_suite

    names = tuple(args.names) or None
    config = _config_from(args)
    exit_code = 0
    reports = run_suite(names, config=config)
    if not args.json:
        # Human mode prints the finished tables before any optional
        # extra (--spm sweep, --validate, --hier) runs: a failure in an
        # appended matrix must not discard an already-computed suite
        # run (--json needs the whole payload, so it stays
        # all-or-nothing by construction).
        print(format_table1([r.census for r in reports]))
        print()
        print(format_table2([r.table2 for r in reports]))
        print()
        print(format_table3([r.table3 for r in reports]))
        print()
        print(summarize_headline([r.table2 for r in reports]))
    sweeps = None
    if args.spm:
        sweeps = {
            report.name: cached_exploration(
                report.extraction.compiled.source, config, report.model)
            for report in reports
        }
        if not args.json:
            print()
            print(format_spm_frontier(sweeps))
    validations = hierarchy = None
    if args.validate:
        validations = _validate_or_exit(names, args, config)
        if not all(r.passes(args.threshold) for r in validations):
            exit_code = 1
    if args.hier:
        hierarchy = _hier_or_exit(names, args, config)
    if args.json:
        from repro.analysis import jsonout

        print(json.dumps(jsonout.suite_payload(
            reports, sweeps=sweeps, validations=validations,
            hierarchy=hierarchy, threshold=args.threshold), indent=2))
    else:
        if validations is not None:
            print()
            print(format_stability_table(validations,
                                         threshold=args.threshold))
        if hierarchy is not None:
            print()
            print(format_hier_table(hierarchy))
    _report_cache_counters(config)
    return exit_code


def _validate_or_exit(names, args, config):
    """Run the validation matrix, turning declaration errors (unknown
    scenario/profile, bad --scenarios) into a clean CLI exit."""
    from repro.pipeline import validate_suite

    try:
        return validate_suite(names, config=config)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"validate: {message}") from None


def _hier_or_exit(names, args, config):
    """Run the hierarchy matrix, turning declaration errors (unknown
    workload names) into a clean CLI exit."""
    from repro.pipeline import hier_suite

    try:
        return hier_suite(names, config=config)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"hier: {message}") from None


def cmd_validate(args) -> int:
    from repro.analysis.report import format_stability_table

    names = tuple(args.names) or None
    config = _config_from(args)
    results = _validate_or_exit(names, args, config)
    if args.json:
        from repro.analysis import jsonout

        print(json.dumps(jsonout.validate_payload(results, args.threshold),
                         indent=2))
    else:
        for result in results:
            print(f"=== {result.workload}: model from scenario "
                  f"{result.profile!r} ===")
            print(f"  self ({result.profile}): "
                  f"{result.self_validation.summary()}")
            for cell in result.cross:
                print(f"  {cell.scenario}: {cell.report.summary()}")
        print()
        print(format_stability_table(results, threshold=args.threshold))
    _report_cache_counters(config)
    return 0 if all(r.passes(args.threshold) for r in results) else 1


def cmd_hier(args) -> int:
    from repro.analysis.report import format_hier_table

    names = tuple(args.names) or None
    config = _config_from(args)
    results = _hier_or_exit(names, args, config)
    if args.json:
        from repro.analysis import jsonout

        print(json.dumps(jsonout.hier_payload(results), indent=2))
    else:
        print(format_hier_table(results))
    _report_cache_counters(config)
    return 0


def cmd_static(args) -> int:
    from repro.analysis.report import format_static_table
    from repro.pipeline import static_suite

    names = tuple(args.names) or None
    config = _config_from(args)
    try:
        reports = static_suite(names, config=config)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"static: {message}") from None
    if args.json:
        from repro.analysis import jsonout

        print(json.dumps(jsonout.static_payload(reports), indent=2))
    else:
        print(format_static_table(reports))
    failures = [line for report in reports
                for line in report.oracle.diff_lines()]
    if failures:
        print("static-vs-dynamic disagreement:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
    _report_cache_counters(config)
    return 1 if failures else 0


def cmd_lint(args) -> int:
    from repro.lang.lint import lint_source
    from repro.pipeline import LintReport, lint_suite

    if args.files:
        if args.names:
            raise SystemExit("lint: give workload names or --file, not both")
        reports = [
            LintReport(path, "", tuple(lint_source(open(path).read(), path)))
            for path in args.files
        ]
    else:
        try:
            reports = lint_suite(tuple(args.names) or None)
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            raise SystemExit(f"lint: {message}") from None
    if args.json:
        from repro.analysis import jsonout

        print(json.dumps(jsonout.lint_payload(reports), indent=2))
    else:
        for report in reports:
            for finding in report.findings:
                print(finding.format(report.label))
        errors = sum(report.error_count for report in reports)
        warnings = sum(report.warning_count for report in reports)
        print(f"{len(reports)} source(s) linted: "
              f"{errors} error(s), {warnings} warning(s)")
    return 1 if any(report.error_count for report in reports) else 0


def _checks_from(args) -> tuple[str, ...]:
    """``--check`` values, repeatable and comma-splittable; the full
    battery when none given. Unknown names are rejected by the harness
    with the known list."""
    from repro.gen.fuzz import FUZZ_CHECKS

    if not args.check:
        return FUZZ_CHECKS
    return tuple(
        part.strip()
        for value in args.check
        for part in value.split(",") if part.strip()
    )


def cmd_gen(args) -> int:
    from repro.analysis.report import format_fuzz_summary
    from repro.gen.fuzz import run_fuzz

    config = _config_from(args)
    try:
        report = run_fuzz(
            args.gen_profile, seeds=args.seeds, seed_start=args.seed_start,
            checks=_checks_from(args), shrink=not args.no_shrink,
            config=config)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"gen: {message}") from None
    if args.json:
        from repro.analysis import jsonout

        print(json.dumps(jsonout.gen_payload(report), indent=2))
    else:
        print(format_fuzz_summary(report))
    _report_cache_counters(config)
    return 0 if report.ok else 1


def cmd_figures(args) -> int:
    from repro.foray.emitter import emit_model
    from repro.foray.filters import FilterConfig
    from repro.pipeline import PipelineConfig, extract_foray_model
    from repro.workloads.registry import FIGURE_WORKLOADS

    relaxed = PipelineConfig(filter_config=FilterConfig(nexec=1, nloc=1))
    for name, workload in FIGURE_WORKLOADS.items():
        print(f"=== {name}: {workload.description} ===")
        result = extract_foray_model(workload.source, config=relaxed)
        print(emit_model(result.model))
    return 0


def cmd_spm(args) -> int:
    from repro.analysis.report import format_spm_frontier
    from repro.pipeline import cached_exploration, full_flow

    source = open(args.file).read()
    config = _config_from(args)
    flow = full_flow(args.file, source, config=config)
    print(flow.report.extraction.foray_source)
    print(flow.transformed_source)
    points = flow.exploration
    if points is None:
        points = cached_exploration(source, config, flow.report.model,
                                    graph=flow.graph)
    print(format_spm_frontier({args.file: points}))
    return 0


def cmd_cache(args) -> int:
    store = ArtifactStore(args.cache_dir or default_cache_dir())
    if args.action == "path":
        print(store.path)
    elif args.action == "clear":
        print(f"cleared {store.clear()} entries from {store.path}")
    else:  # stats
        entries = store.entry_stats()
        counters = store.tally()
        print(f"artifact store: {store.path} (schema v{SCHEMA_VERSION})")
        print(f"{'namespace':<12} {'entries':>8} {'bytes':>12} "
              f"{'hits':>8} {'misses':>8} {'stored':>8}")
        total_entries = total_bytes = 0
        for namespace in NAMESPACES:
            count, size = entries.get(namespace, (0, 0))
            tally = counters.get(namespace, {})
            total_entries += count
            total_bytes += size
            print(f"{namespace:<12} {count:>8} {size:>12} "
                  f"{tally.get('hits', 0):>8} {tally.get('misses', 0):>8} "
                  f"{tally.get('stores', 0):>8}")
        print(f"{'total':<12} {total_entries:>8} {total_bytes:>12}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FORAY-GEN (DATE 2005) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="Phase I on a MiniC file")
    p_extract.add_argument("file")
    p_extract.add_argument("--annotated", action="store_true",
                           help="also print the checkpoint-annotated source")
    p_extract.add_argument("--hints", action="store_true",
                           help="print function-duplication hints")
    _add_filter_args(p_extract)
    _add_engine_args(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_suite = sub.add_parser("suite", help="Tables I-III on mini-MiBench")
    p_suite.add_argument("names", nargs="*",
                         help="benchmark subset (default: the full suite)")
    p_suite.add_argument("--jobs", type=_jobs, default=1,
                         help="worker processes for the suite "
                              "(0 = CPU count; default: serial)")
    p_suite.add_argument("--spm", action="store_true",
                         help="append the SPM capacity/energy frontier "
                              "per workload")
    p_suite.add_argument("--validate", action="store_true",
                         help="append the cross-input stability table "
                              "(scenario matrix)")
    p_suite.add_argument("--hier", action="store_true",
                         help="append the memory-hierarchy comparison "
                              "(pure cache vs SPM+cache)")
    _add_filter_args(p_suite)
    _add_engine_args(p_suite)
    _add_spm_args(p_suite)
    _add_validation_args(p_suite)
    _add_hier_args(p_suite, sweep_flag="--hier-sweep")
    _add_json_arg(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_static = sub.add_parser(
        "static", help="compile-time FORAY model + differential oracle")
    p_static.add_argument("names", nargs="*",
                          help="workload subset (default: the full suite)")
    p_static.add_argument("--jobs", type=_jobs, default=1,
                          help="worker processes for the (workload x "
                               "scenario) matrix (0 = CPU count; "
                               "default: serial)")
    _add_filter_args(p_static)
    _add_engine_args(p_static)
    _add_json_arg(p_static)
    p_static.set_defaults(func=cmd_static)

    p_lint = sub.add_parser(
        "lint", help="MiniC semantic linter (dataflow-driven)")
    p_lint.add_argument("names", nargs="*",
                        help="workload subset (default: every workload x "
                             "scenario source in the suite)")
    p_lint.add_argument("--file", dest="files", action="append", default=[],
                        metavar="PATH",
                        help="lint a MiniC source file instead of the "
                             "registered workloads (repeatable)")
    _add_json_arg(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_gen = sub.add_parser(
        "gen", help="seeded program generation + differential fuzzing")
    p_gen.add_argument("--seeds", type=int, default=100,
                       help="number of consecutive seeds to fuzz "
                            "(default: %(default)s)")
    p_gen.add_argument("--seed-start", type=int, default=0, metavar="N",
                       help="first seed of the range (default: %(default)s)")
    p_gen.add_argument("--profile", dest="gen_profile", default="small",
                       metavar="SIZE",
                       help="generator size profile: small, medium or "
                            "large (default: %(default)s)")
    p_gen.add_argument("--check", action="append", default=None,
                       metavar="NAME[,NAME...]",
                       help="run only these checks (repeatable; default: "
                            "parity, ir, lint, static, alloc, traffic, "
                            "transfer)")
    p_gen.add_argument("--jobs", type=_jobs, default=1,
                       help="worker processes for the seed range "
                            "(0 = CPU count; default: serial)")
    p_gen.add_argument("--no-shrink", action="store_true",
                       help="report failures without minimizing them")
    _add_filter_args(p_gen)
    _add_engine_args(p_gen)
    _add_json_arg(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_figures = sub.add_parser("figures", help="reproduce the paper figures")
    p_figures.set_defaults(func=cmd_figures)

    p_validate = sub.add_parser(
        "validate", help="cross-input validation over the scenario matrix")
    p_validate.add_argument("names", nargs="*",
                            help="workload subset (default: the full suite)")
    p_validate.add_argument("--jobs", type=_jobs, default=1,
                            help="worker processes for the (workload x "
                                 "scenario) matrix (0 = CPU count; "
                                 "default: serial)")
    _add_filter_args(p_validate)
    _add_engine_args(p_validate)
    _add_validation_args(p_validate)
    _add_json_arg(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_hier = sub.add_parser(
        "hier", help="cache co-simulation: pure cache vs SPM+cache")
    p_hier.add_argument("names", nargs="*",
                        help="workload subset (default: the full suite)")
    p_hier.add_argument("--jobs", type=_jobs, default=1,
                        help="worker processes for the (workload x "
                             "scenario x cache-config) matrix "
                             "(0 = CPU count; default: serial)")
    p_hier.add_argument("--spm-bytes", type=int, default=4096,
                        help="SPM capacity of the hybrid configuration "
                             "(default: %(default)s)")
    p_hier.add_argument("--scenarios", dest="hier_scenarios", type=int,
                        default=None, metavar="N",
                        help="widen each workload's matrix to its first "
                             "N input scenarios (default: the nominal "
                             "profiling scenario only)")
    _add_filter_args(p_hier)
    _add_engine_args(p_hier)
    _add_spm_args(p_hier)
    _add_hier_args(p_hier)
    _add_json_arg(p_hier)
    p_hier.set_defaults(func=cmd_hier, hier=True)

    p_spm = sub.add_parser("spm", help="Phases I+II on a MiniC file")
    p_spm.add_argument("file")
    p_spm.add_argument("--spm-bytes", type=int, default=4096)
    p_spm.add_argument("--sweep", nargs="?", const="default",
                       metavar="BYTES,BYTES,...",
                       help="sweep a capacity ladder (default ladder when "
                            "given without a value)")
    _add_filter_args(p_spm)
    _add_engine_args(p_spm)
    _add_spm_args(p_spm)
    p_spm.set_defaults(func=cmd_spm)

    p_cache = sub.add_parser(
        "cache", help="inspect or wipe the disk artifact store")
    p_cache.add_argument("action", choices=("stats", "clear", "path"),
                         help="stats: entry counts and hit/miss tallies; "
                              "clear: remove every entry; path: print the "
                              "resolved store directory")
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="store location (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its disk-cache counters start at zero and are
    added to each open store's tally when it ends, however it ends."""
    args = build_parser().parse_args(argv)
    reset_store_counters()
    try:
        return args.func(args)
    finally:
        record_store_counters()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

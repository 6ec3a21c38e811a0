"""Partial affine expressions (paper Figure 7).

Two programs whose access addresses cannot be described by one affine
function:

* ``fig7a`` — a local array reallocated at varying stack depths, so the
  base address changes between calls;
* ``fig7b`` — a global array indexed through a data-dependent offset
  parameter.

In both cases FORAY-GEN recovers a *partial* affine expression: the inner
loop iterators are captured exactly while the constant term is marked as
context-dependent — which still lets an SPM optimizer buffer the data
reused inside the function.

Run:  python examples/partial_affine.py
"""

from repro.foray.emitter import emit_model
from repro.foray.filters import FilterConfig
from repro.pipeline import PipelineConfig, extract_foray_model
from repro.workloads.figures import FIG7A, FIG7B


def show(workload) -> None:
    print(f"=== {workload.name}: {workload.description} ===")
    config = PipelineConfig(filter_config=FilterConfig(nexec=1, nloc=1))
    result = extract_foray_model(workload.source, config=config)
    model = result.model

    for ref in model.references:
        expr = ref.expression
        kind = "full" if ref.is_full else "partial"
        print(
            f"  {ref.array_name}: nest depth {ref.nest_depth}, "
            f"M={expr.num_iterators} ({kind}), "
            f"index = {ref.index_text()}"
            + ("" if ref.is_full else "   /* const varies with outer context */")
        )
    partial = model.partial_references()
    print(f"  -> {len(partial)} partial of {len(model.references)} references")
    print()
    print(emit_model(model))
    print()


def main() -> None:
    show(FIG7A)
    show(FIG7B)


if __name__ == "__main__":
    main()

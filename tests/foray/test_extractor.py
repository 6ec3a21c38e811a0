"""Integration tests for the FORAY-GEN extractor (Algorithm 1)."""

from repro.foray.extractor import (
    ForayExtractor,
    extract_from_records,
    extract_from_source,
)
from repro.foray.filters import FilterConfig
from repro.sim.machine import compile_program, run_compiled
from repro.sim.trace import TraceCollector, format_trace, parse_trace

RELAXED = FilterConfig(nexec=1, nloc=1)


def extract(source, filter_config=None):
    model, _, _ = extract_from_source(source, filter_config)
    return model


class TestEndToEnd:
    def test_simple_affine_loop(self):
        model = extract(
            "int g[64]; int main() { int i; for (i = 0; i < 64; i++) g[i] = i;"
            " return 0; }"
        )
        (ref,) = model.references
        assert ref.expression.used_coefficients() == (4,)
        assert ref.exec_count == 64
        assert ref.footprint == 64
        assert ref.is_full

    def test_two_level_nest(self):
        model = extract(
            "int g[16][16]; int main() { int i, j;"
            " for (i = 0; i < 16; i++) for (j = 0; j < 16; j++) g[i][j] = 1;"
            " return 0; }"
        )
        (ref,) = model.references
        assert ref.expression.used_coefficients() == (4, 64)
        assert len(ref.loop_path) == 2

    def test_pointer_walk_recovered(self):
        # The headline capability: a while loop + pointer walk becomes a
        # clean affine reference.
        model = extract(
            "char buf[256]; int main() { char *p = buf; int n = 0;"
            " while (n < 200) { *p++ = (char)n; n++; } return 0; }"
        )
        (ref,) = model.references
        assert ref.expression.used_coefficients() == (1,)
        assert ref.loop_path[0].kind == "while"

    def test_irregular_reference_excluded(self):
        model = extract(
            "int t[64]; int perm[64]; int main() { int i;"
            " for (i = 0; i < 64; i++) perm[i] = (i * 29 + 7) % 64;"
            " for (i = 0; i < 64; i++) t[perm[i]] = i;"
            " return 0; }"
        )
        names = {ref.pc for ref in model.references}
        # perm[i] store, perm[i] load are affine; t[perm[i]] is not.
        assert len(names) == 2

    def test_scalar_global_filtered_by_nloc(self):
        model = extract(
            "int acc; int g[64]; int main() { int i;"
            " for (i = 0; i < 64; i++) acc += g[i]; return 0; }"
        )
        # g[i] read survives; acc load/store footprint 1 is purged.
        assert len(model.references) == 1

    def test_small_loop_filtered_by_nexec(self):
        model = extract(
            "int g[64]; int main() { int i; for (i = 0; i < 5; i++) g[i] = i;"
            " return 0; }"
        )
        assert model.references == []
        assert len(model.unfiltered_references) >= 1

    def test_loops_counted_from_iterator_bearing_refs(self):
        model = extract(
            "int g[8]; int main() { int i; for (i = 0; i < 8; i++) g[i] = i;"
            " return 0; }"
        )
        # The reference is purged (footprint 8 < 10) but proved the loop
        # reconstructible: the loop still counts for Table II.
        assert model.references == []
        assert len(model.loops) == 1

    def test_access_outside_loops_has_depth_zero(self):
        model = extract("int g[4]; int main() { g[2] = 1; return 0; }", RELAXED)
        (ref,) = model.unfiltered_references
        assert ref.nest_depth == 0
        assert model.references == []  # no iterator -> never in the model

    def test_library_accesses_not_modelled(self):
        model = extract(
            "int a[32]; int b[32]; int main() { int i;"
            " for (i = 0; i < 16; i++) memcpy(b, a, 128); return 0; }",
            RELAXED,
        )
        assert model.references == []
        stats = model.trace_stats
        assert stats.lib_accesses == 16 * 64
        assert len(stats.lib_refs) == 2  # memcpy load + store sites

    def test_captured_totals(self):
        model = extract(
            "int g[64]; int main() { int i; for (i = 0; i < 64; i++) g[i] = i;"
            " return 0; }"
        )
        assert model.captured_accesses == 64
        assert model.captured_footprint == 64

    def test_user_footprint_counts_every_user_access(self):
        # Each access executes with both iterators changed, so both
        # references are non-analyzable; the user footprint, the union
        # of the solvers' address sets, still holds their addresses.
        source = (
            "int g[64]; int h[64];"
            "int main() { int i, j;"
            " for (i = 0; i < 4; i++) for (j = 0; j < 4; j++)"
            "  if (j == 3 - i) g[8 * i + j] = h[i];"
            " return 0; }"
        )
        compiled = compile_program(source)
        collector = TraceCollector()
        extractor = ForayExtractor(compiled.checkpoint_map)
        run_compiled(compiled, sinks=(collector, extractor))
        model = extractor.finish()
        assert model.non_analyzable_count == 2
        assert model.trace_stats.user_addresses == {
            access.addr for access in collector.accesses()
            if not access.is_library}

    def test_same_function_two_contexts_two_references(self):
        model = extract(
            "int g[128];"
            "void fill(int base) { int i; for (i = 0; i < 32; i++)"
            "  g[base + i] = i; }"
            "int main() { int x;"
            " for (x = 0; x < 4; x++) fill(x);"
            " for (x = 0; x < 4; x++) fill(2 * x);"
            " return 0; }"
        )
        assert len(model.references) == 2
        assert len({ref.pc for ref in model.references}) == 1


class TestStreamingEquivalence:
    SOURCE = """
    int g[40];
    int h[40];
    int main() {
        int i, j;
        for (i = 0; i < 10; i++) {
            for (j = 0; j < 40; j++) {
                g[j] = h[j] + i;
            }
        }
        return 0;
    }
    """

    def _models(self):
        compiled = compile_program(self.SOURCE)
        collector = TraceCollector()
        online = ForayExtractor(compiled.checkpoint_map)
        run_compiled(compiled, sinks=(collector, online))
        online_model = online.finish()

        # Offline: write the paper text format, parse it back, re-analyze.
        text = format_trace(collector.records)
        offline_model = extract_from_records(
            parse_trace(text, compiled.checkpoint_map), compiled.checkpoint_map
        )
        return online_model, offline_model

    def test_online_equals_offline_reference_sets(self):
        online, offline = self._models()
        def key(model):
            return sorted(
                (r.pc, r.expression.const, r.expression.used_coefficients(),
                 r.exec_count, r.footprint)
                for r in model.references
            )
        assert key(online) == key(offline)

    def test_online_equals_offline_loops(self):
        online, offline = self._models()
        def loops(model):
            return sorted((lp.begin_id, lp.max_trip, lp.entries)
                          for lp in model.loops)
        assert loops(online) == loops(offline)

    def test_online_equals_offline_stats(self):
        online, offline = self._models()
        assert (online.trace_stats.total_accesses
                == offline.trace_stats.total_accesses)
        assert online.trace_stats.user_refs == offline.trace_stats.user_refs

    def test_finish_is_idempotent(self):
        compiled = compile_program(self.SOURCE)
        extractor = ForayExtractor(compiled.checkpoint_map)
        run_compiled(compiled, sinks=(extractor,))
        assert extractor.finish() is extractor.finish()


class TestExecutedLoops:
    def test_static_loop_counted_once_across_contexts(self):
        source = (
            "int g[64];"
            "void f() { int i; for (i = 0; i < 8; i++) g[i] = i; }"
            "int main() { int x; for (x = 0; x < 3; x++) f(); f(); return 0; }"
        )
        compiled = compile_program(source)
        extractor = ForayExtractor(compiled.checkpoint_map)
        run_compiled(compiled, sinks=(extractor,))
        extractor.finish()
        executed = extractor.executed_loops()
        assert len(executed) == 2  # the for in f() and the for in main
        assert sorted(executed.values()) == ["for", "for"]

    def test_unexecuted_loop_not_counted(self):
        source = (
            "int g[64];"
            "int main() { int i; if (0) { for (i = 0; i < 8; i++) g[i] = 1; }"
            " return 0; }"
        )
        compiled = compile_program(source)
        extractor = ForayExtractor(compiled.checkpoint_map)
        run_compiled(compiled, sinks=(extractor,))
        assert extractor.executed_loops() == {}


class TestDeepLoopTree:
    #: r() recurses 500 calls deep (legal under the default call-depth
    #: budget of 512) through two nested loops, so the dynamic loop tree
    #: is 1000 nodes deep and holds one store reference per inner node.
    SOURCE = """
    int a[8];

    void r(int d) {
        int i;
        int j;
        for (i = 0; i < 1; i++) {
            for (j = 0; j < 1; j++) {
                a[j] = d;
                if (d > 0) {
                    r(d - 1);
                }
            }
        }
    }

    int main(void) {
        r(499);
        return 0;
    }
    """

    def test_extraction_survives_a_deep_tree_on_both_engines(self):
        from repro.pipeline import PipelineConfig, run_workload

        models = [
            run_workload("deep", self.SOURCE,
                         config=PipelineConfig(cache=False, engine=engine))
            .extraction.model
            for engine in ("bytecode", "ast")
        ]
        assert len(models[0].unfiltered_references) == 500
        assert models[0] == models[1]

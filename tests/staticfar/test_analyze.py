"""Differential tests for the compile-time FORAY analyzer.

Every test extracts the dynamic model by simulation, computes the static
model from the AST alone, and pushes both through the oracle: matched
references must agree exactly (coefficients, counts, footprints, loop
paths), every unmatched dynamic reference must carry an explicit refusal,
and the static model must contain no phantom references.
"""

from repro.foray.extractor import extract_from_source
from repro.foray.filters import FilterConfig
from repro.staticfar.analyze import analyze_static
from repro.staticfar.detector import detect
from repro.staticfar.model import REFUSAL_REASONS
from repro.staticfar.oracle import compare_models

RELAXED = FilterConfig(nexec=1, nloc=1)


def differential(source, filter_config=RELAXED):
    """Extract dynamically, analyze statically, run the oracle."""
    dynamic, _result, compiled = extract_from_source(source, filter_config)
    detector = detect(compiled.program)
    static = analyze_static(compiled.program, filter_config,
                            detector_result=detector)
    report = compare_models(dynamic, static, detector=detector)
    assert report.ok, "\n".join(report.diff_lines())
    return dynamic, static, report


class TestAffineLoops:
    def test_flat_loops_match_exactly(self):
        source = """
        int A[100]; int B[100];
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 100; i++) { A[i] = i * 2; }
            for (i = 0; i < 50; i++) { s = s + A[2 * i]; B[i] = s; }
            return s;
        }
        """
        dynamic, static, report = differential(source)
        assert report.matched == report.dynamic_total > 0
        assert not static.refusals
        assert static.model_complete

    def test_nested_loops_calls_and_trailing_refs(self):
        source = """
        int A[8][16]; int acc[16];
        void fill(int base) {
            int y; int x;
            for (y = 0; y < 8; y++) {
                for (x = 0; x < 16; x++) { A[y][x] = base + y * 16 + x; }
                acc[y] = A[y][0];
            }
        }
        int main() {
            int k;
            fill(7);
            for (k = 0; k < 16; k++) { acc[0] = acc[0] + A[3][k]; }
            return acc[0];
        }
        """
        dynamic, static, report = differential(source)
        assert report.matched == report.dynamic_total
        assert static.model_complete

    def test_local_arrays_and_param_affine_propagation(self):
        # The callee's frame address must be reproduced by the stack
        # simulation, and the loop-dependent parameter `br` must flow
        # into the callee's access functions as an affine term.
        source = """
        int out[64];
        void dct(int br, int bc) {
            int workspace[8]; int i;
            for (i = 0; i < 8; i++) { workspace[i] = i + br; }
            for (i = 0; i < 8; i++) { out[8 * br + i] = workspace[i] + bc; }
        }
        int main() {
            int b;
            for (b = 0; b < 4; b++) { dct(b, b + 1); }
            dct(5, 0);
            return out[0];
        }
        """
        dynamic, static, report = differential(source)
        assert report.matched == report.dynamic_total

    def test_structs_compound_assign_incdec_and_edge_trips(self):
        source = """
        int A[40]; int tab[10] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3}; int g;
        struct Pt { int x; int y; };
        struct Pt pts[5];
        int main() {
            int i; int j; int once;
            for (once = 0; once < 1; once++) { A[once] = 9; }
            for (i = 0; i < 0; i++) { A[i] = 1; }
            for (i = 9; i >= 0; i--) { A[i] = tab[i]; }
            for (i = 0; i < 5; i++) {
                pts[i].x = i;
                pts[i].y = A[i] + g;
                g = g + pts[i].x;
                A[i] += 2;
                A[i + 1]++;
            }
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 1; j++) { A[i + j] = A[i + j] * 2; }
            }
            return g;
        }
        """
        dynamic, static, report = differential(source)
        assert report.matched == report.dynamic_total
        # trip-0 loop bodies never execute: no reference on either side.
        assert static.model_complete

    def test_negative_step_reference_modeled_exactly(self):
        source = """
        int A[10]; int g;
        int main() {
            int i;
            for (i = 9; i >= 0; i--) { A[i] = i; }
            for (i = 9; i > 0; i -= 2) { g = g + A[i]; }
            return g;
        }
        """
        dynamic, static, report = differential(source)
        assert report.matched == report.dynamic_total
        downward = [ref for ref in static.unfiltered_references
                    if ref.loop_path and ref.loop_path[-1].max_trip == 5]
        assert downward  # the stride -2 loop runs 5 times: 9,7,5,3,1

    def test_triangular_loops_strides_and_do_while(self):
        source = """
        int A[100]; int g;
        void maybe_quit(int x) { if (x > 1000) { exit(1); } }
        int sum3(int a, int b, int c) { return a + b + c; }
        int main() {
            int i; int j; int k;
            for (i = 0; i < 6; i++) {
                for (j = i; j < 6; j++) { A[6 * i + j] = i + j; }
            }
            for (i = 0; i < 10; i += 3) {
                A[i] = sum3(A[i + 1], A[i + 2], i);
            }
            maybe_quit(g);
            for (k = 9; k > 0; k -= 2) { g = g + A[k]; }
            do { g++; } while (g < 0);
            return g;
        }
        """
        differential(source)


class TestRefusals:
    def test_non_affine_and_control_dependent_refs_refused(self):
        source = """
        int A[50]; int idx[50]; int g;
        int pick(int k) {
            if (k > 3) { return A[k]; }
            return k;
        }
        int main() {
            int i; int n; n = 0;
            while (n < 10) { A[n] = n; n++; }
            for (i = 0; i < 20; i++) {
                if (i % 2 == 0) { g = g + A[i]; }
                A[idx[i]] = i;
                g = (i > 5) ? A[0] : A[1];
                if (i > 3 && A[i] > 0) { g++; }
            }
            g = g + pick(7);
            for (i = 0; i < 4; i++) { g = g + pick(i); }
            return g;
        }
        """
        dynamic, static, report = differential(source)
        reasons = set(static.refusal_histogram)
        assert reasons <= set(REFUSAL_REASONS)
        assert "non-affine-index" in reasons     # A[idx[i]]
        assert "non-canonical-loop" in reasons   # the while body
        assert "control-dependent" in reasons    # refs under if/ternary
        assert not static.model_complete

    def test_recursion_and_stack_refusals(self):
        source = """
        int A[30]; int g;
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        void leaf() {
            char msg[8] = "hi";
            int t[4] = {1, 2, 3, 4};
            int i;
            for (i = 0; i < 4; i++) { g = g + t[i] + msg[0]; }
        }
        int main() {
            int i;
            for (i = 0; i < 10; i++) {
                int scratch[4];
                scratch[0] = i;
                A[i] = scratch[0];
            }
            for (i = 0; i < 10; i++) {
                if (A[i] > 5) { break; }
                g = g + A[i];
            }
            leaf();
            g = g + fib(6);
            return g;
        }
        """
        dynamic, static, report = differential(source)
        reasons = set(static.refusal_histogram)
        assert "recursion" in reasons
        assert "stack-allocated" in reasons      # loop-local scratch[]
        assert "non-canonical-loop" in reasons   # the break loop

    def test_every_dynamic_gap_is_an_explicit_refusal(self):
        # The no-silent-gaps half of the oracle contract on a program
        # mixing modelable and unmodelable references.
        source = """
        int A[20]; int B[20]; int g;
        int main() {
            int i; int n;
            for (i = 0; i < 20; i++) { A[i] = i; }
            n = 0;
            while (n < 5) { B[n] = A[n]; n++; }
            return g;
        }
        """
        dynamic, static, report = differential(source)
        assert not report.unexplained
        assert 0 < report.matched < report.dynamic_total

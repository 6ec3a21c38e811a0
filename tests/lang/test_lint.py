"""Tests for the MiniC semantic linter (repro.lang.lint).

One test per rule code, the flow-sensitivity corners (short-circuit
evaluation, merges, loops), the CLI exit-code contract, and the
clean-baseline expectation over the whole workload suite.
"""

import json

import pytest

from repro.cli import main
from repro.lang.lint import RULES, SEVERITY, const_value, lint_source
from repro.lang.semantics import parse_and_analyze
from repro.workloads.registry import get_workload, workload_names


def rules_of(source: str) -> list[str]:
    return [f.rule for f in lint_source(source)]


def wrap(body: str) -> str:
    return f"int main(void) {{ {body} }}"


class TestRuleCodes:
    def test_l100_frontend_error(self):
        findings = lint_source("int main( {")
        assert [f.rule for f in findings] == ["L100"]
        assert findings[0].severity == "error"

    def test_l101_use_before_initialization(self):
        assert "L101" in rules_of(wrap("int x; return x;"))

    def test_l101_branch_defined_only_on_one_path(self):
        src = """
        int main(void) {
            int x;
            int c = 3;
            if (c > 1) { x = 1; }
            return x;
        }
        """
        assert "L101" in rules_of(src)

    def test_l101_not_flagged_when_both_paths_define(self):
        src = """
        int main(void) {
            int x;
            int c = 3;
            if (c > 1) { x = 1; } else { x = 2; }
            return x;
        }
        """
        assert "L101" not in rules_of(src)

    def test_l101_short_circuit_rhs_may_not_execute(self):
        src = """
        int main(void) {
            int x;
            int c = 3;
            if (c > 1 && (x = 5) > 0) { return x; }
            return x;
        }
        """
        assert "L101" in rules_of(src)

    def test_l101_parameters_count_as_initialized(self):
        src = "int f(int a) { return a; } int main(void) { return f(1); }"
        assert "L101" not in rules_of(src)

    def test_l102_constant_index_out_of_bounds(self):
        assert "L102" in rules_of(wrap("int a[4]; a[0] = 1; return a[4];"))
        assert "L102" in rules_of(wrap("int a[4]; a[-1] = 1; return 0;"))

    def test_l102_in_bounds_is_clean(self):
        assert "L102" not in rules_of(
            wrap("int a[4]; a[3] = 1; return a[0];"))

    def test_l201_dead_store(self):
        src = """
        int main(void) {
            int x;
            x = 1;
            x = 2;
            return x;
        }
        """
        assert rules_of(src).count("L201") == 1

    def test_l201_declaration_initializer_exempt(self):
        # Defensive `int i = 0;` then reassignment is accepted style.
        src = """
        int main(void) {
            int i = 0;
            i = 5;
            return i;
        }
        """
        assert "L201" not in rules_of(src)

    def test_l201_loop_carried_value_is_live(self):
        src = """
        int main(void) {
            int i, t = 0;
            for (i = 0; i < 4; i++) { t = t + i; }
            return t;
        }
        """
        assert "L201" not in rules_of(src)

    def test_l202_unused_variable_array_parameter(self):
        src = """
        int f(int used, int spare) { return used; }
        int main(void) {
            int dead;
            int tab[8];
            return f(1, 2);
        }
        """
        findings = lint_source(src)
        messages = [f.message for f in findings if f.rule == "L202"]
        assert any("parameter 'spare'" in m for m in messages)
        assert any("variable 'dead'" in m for m in messages)
        assert any("array 'tab'" in m for m in messages)

    def test_l202_globals_are_exempt(self):
        # Globals are externally visible (traces, post-run dumps).
        src = "int visible_state; int main(void) { return 0; }"
        assert "L202" not in rules_of(src)

    def test_l203_constant_branch(self):
        assert "L203" in rules_of(wrap("if (2 > 1) { return 1; } return 0;"))
        assert "L203" not in rules_of(
            wrap("int c = 1; if (c) { return 1; } return 0;"))

    def test_l204_zero_trip_loop(self):
        assert "L204" in rules_of(
            wrap("int i; for (i = 0; 0; i++) { } return 0;"))
        assert "L204" in rules_of(wrap("while (1 > 2) { } return 0;"))

    def test_l204_do_while_runs_once_not_flagged(self):
        assert "L204" not in rules_of(
            wrap("int n = 0; do { n++; } while (0); return n;"))

    def test_l205_non_terminating_loop(self):
        assert "L205" in rules_of(wrap("while (1) { } return 0;"))
        assert "L205" in rules_of(wrap("for (;;) { } return 0;"))

    def test_l205_break_or_return_escapes(self):
        assert "L205" not in rules_of(wrap("while (1) { break; } return 0;"))
        assert "L205" not in rules_of(wrap("for (;;) { return 3; }"))

    def test_l205_break_in_nested_loop_does_not_count(self):
        src = wrap("""
            int i;
            while (1) {
                for (i = 0; i < 3; i++) { break; }
            }
            return 0;
        """)
        assert "L205" in rules_of(src)


class TestFindingShape:
    def test_severities_match_table(self):
        assert set(SEVERITY) == set(RULES)
        for finding in lint_source(wrap("int x; return x;")):
            assert finding.severity == SEVERITY[finding.rule]
            assert finding.line > 0
            assert finding.function == "main"

    def test_findings_sorted_by_position(self):
        findings = lint_source("""
        int main(void) {
            int a[2];
            int x;
            a[5] = 1;
            return x;
        }
        """)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_format_is_stable(self):
        finding = lint_source(wrap("int x; return x;"))[0]
        text = finding.format("demo.c")
        assert text.startswith("demo.c:")
        assert "error L101:" in text


class TestConstFolding:
    @pytest.mark.parametrize("expr,value", [
        ("1 + 2 * 3", 7),
        ("-7 / 2", -3),          # C semantics truncate toward zero
        ("-7 % 2", -1),
        ("1 << 4", 16),
        ("sizeof(int)", 4),
        ("0 && (1 / 0)", 0),     # short-circuit guards the bad operand
        ("1 || (1 / 0)", 1),
        ("(2 > 1) ? 5 : 9", 5),
    ])
    def test_folds(self, expr, value):
        program = parse_and_analyze(
            f"int main(void) {{ return {expr}; }}", "<test>")
        ret = program.functions[-1].body.stmts[-1]
        assert const_value(ret.expr) == value

    def test_division_by_zero_is_not_constant(self):
        program = parse_and_analyze(
            "int main(void) { return 1 / 0; }", "<test>")
        ret = program.functions[-1].body.stmts[-1]
        assert const_value(ret.expr) is None


class TestSuiteBaseline:
    def test_every_workload_scenario_lints_clean(self):
        for name in workload_names():
            workload = get_workload(name)
            for scenario in workload.scenario_names():
                findings = lint_source(workload.source_for(scenario),
                                       f"{name}/{scenario}")
                assert findings == [], (
                    f"{name}/{scenario}: "
                    f"{[f.format() for f in findings]}")


class TestCli:
    def test_suite_lints_clean_and_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_seeded_bug_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("""
        int main(void) {
            int a[4];
            int x;
            a[9] = x;
            return 0;
        }
        """)
        assert main(["lint", "--file", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "L101" in out and "L102" in out

    @pytest.mark.parametrize("dimension", ["1 / 0", "1 % 0", "1 << (0 - 1)"])
    def test_undefined_dimension_is_l100(self, dimension, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text(f"int a[{dimension}];\nint main(void) {{ return 0; }}\n")
        assert main(["lint", "--file", str(bad)]) == 1
        assert "error L100" in capsys.readouterr().out

    def test_json_payload(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void) { int x; return x; }")
        assert main(["lint", "--file", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "lint"
        assert payload["ok"] is False
        assert payload["errors"] == 1
        finding = payload["sources"][0]["findings"][0]
        assert finding["rule"] == "L101"
        assert finding["severity"] == "error"

    def test_json_suite_payload_is_ok(self, capsys):
        assert main(["lint", "adpcm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert all(src["workload"] == "adpcm"
                   for src in payload["sources"])

    def test_unknown_workload_is_an_error(self):
        with pytest.raises(SystemExit, match="lint"):
            main(["lint", "no-such-workload"])

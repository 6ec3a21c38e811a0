"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main

DEMO = """
int g[64];
int main() {
    int i;
    for (i = 0; i < 64; i++) g[i] = i;
    return 0;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestExtract:
    def test_prints_model(self, demo_file, capsys):
        assert main(["extract", demo_file]) == 0
        out = capsys.readouterr().out
        assert "for (int" in out
        assert "1 references" in out

    def test_annotated_flag(self, demo_file, capsys):
        main(["extract", demo_file, "--annotated"])
        out = capsys.readouterr().out
        assert "CHECKPOINT(" in out

    def test_filter_flags(self, demo_file, capsys):
        main(["extract", demo_file, "--nexec", "1000"])
        out = capsys.readouterr().out
        assert "0 references" in out

    def test_hints_flag(self, tmp_path, capsys):
        path = tmp_path / "two.c"
        path.write_text("""
        int A[512]; int acc;
        int foo(int off) { int i; int r = 0;
            for (i = 0; i < 32; i++) r += A[i + off]; return r; }
        int main() { int x;
            for (x = 0; x < 10; x++) acc += foo(10 * x);
            for (x = 0; x < 10; x++) acc += foo(4 * x);
            return 0; }
        """)
        main(["extract", str(path), "--hints"])
        out = capsys.readouterr().out
        assert "hint:" in out


class TestFiguresAndSuite:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1a", "fig4a", "fig7a", "fig9"):
            assert name in out

    def test_suite_subset(self, capsys):
        assert main(["suite", "adpcm"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out
        assert "paper:loops" in out


REUSE_DEMO = """
int table[64]; int out[4096];
int main() { int rep, i;
    for (rep = 0; rep < 64; rep++)
        for (i = 0; i < 64; i++)
            out[64 * rep + i] = table[i];
    return 0; }
"""


class TestSpm:
    @pytest.fixture()
    def reuse_file(self, tmp_path):
        path = tmp_path / "reuse.c"
        path.write_text(REUSE_DEMO)
        return str(path)

    def test_spm_command(self, reuse_file, capsys):
        assert main(["spm", reuse_file, "--spm-bytes", "1024"]) == 0
        out = capsys.readouterr().out
        assert "SPM capacity: 1024" in out
        assert "dma_copy" in out
        assert "SPM capacity sweep (allocator: dp)" in out

    def test_spm_sweep_ladder_and_allocator(self, reuse_file, capsys):
        assert main(["spm", reuse_file, "--sweep", "512,2048",
                     "--allocator", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "SPM capacity sweep (allocator: greedy)" in out
        assert "512" in out and "2048" in out
        assert "pareto" in out

    def test_spm_sweep_default_ladder(self, reuse_file, capsys):
        assert main(["spm", reuse_file, "--sweep"]) == 0
        out = capsys.readouterr().out
        assert "16384" in out  # largest default-ladder capacity

    def test_spm_invalid_ladder_rejected(self, reuse_file):
        with pytest.raises(SystemExit):
            main(["spm", reuse_file, "--sweep", "512,banana"])

    def test_suite_spm_flag(self, capsys):
        assert main(["suite", "adpcm", "--spm"]) == 0
        out = capsys.readouterr().out
        assert "SPM capacity sweep" in out
        assert "pareto" in out

    def test_unknown_allocator_rejected(self, reuse_file):
        with pytest.raises(SystemExit):
            main(["spm", reuse_file, "--allocator", "magic"])


class TestCache:
    @pytest.fixture(autouse=True)
    def _fresh_memory_caches(self):
        # The disk tier only sees L1 *misses*: drop artifacts memoized by
        # earlier in-process tests so these CLI runs exercise the store.
        from repro.pipeline import clear_caches

        clear_caches()
        yield
        clear_caches()

    def test_path_resolves_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-cache-dir")
        assert main(["cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == "/tmp/env-cache-dir"

    def test_stats_then_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["suite", "adpcm", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "cache[extraction]: 0 hits, 1 misses, 1 stored" in captured.err
        assert "cache[" not in captured.out  # counters stay off stdout

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "artifact store:" in out and "schema v" in out
        assert re.search(r"extraction\s+1\s+\d+\s+0\s+1\s+1", out)

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        main(["cache", "stats", "--cache-dir", cache_dir])
        assert re.search(r"total\s+0\s+0", capsys.readouterr().out)

    def test_suite_counters_report_warm_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["suite", "adpcm", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        from repro.pipeline import clear_caches

        clear_caches()  # drop L1 so the rerun exercises the disk tier
        assert main(["suite", "adpcm", "--cache-dir", cache_dir]) == 0
        assert ("cache[extraction]: 1 hits, 0 misses, 0 stored"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["validate", "suite"])
    def test_pool_processes_report_their_counters(self, command, tmp_path,
                                                  capsys):
        # One extraction per workload, counted although pool processes
        # ran them: validation extracts each profile model once and
        # hands it to every replay cell.
        cache_dir = str(tmp_path / "store")
        assert main([command, "adpcm", "gsm", "--jobs", "2",
                     "--cache-dir", cache_dir]) == 0
        assert ("cache[extraction]: 0 hits, 2 misses, 2 stored"
                in capsys.readouterr().err)

    def test_no_disk_cache_prints_no_counters(self, capsys):
        assert main(["suite", "adpcm", "--no-disk-cache"]) == 0
        assert "cache[" not in capsys.readouterr().err

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["cache", "frobnicate"])


class TestGen:
    def test_gen_smoke(self, capsys):
        assert main(["gen", "--seeds", "2", "--no-disk-cache"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: profile=small programs=2 failures=0 errors=0" in out
        assert "parity" in out and "transfer" in out

    def test_gen_json_payload(self, capsys):
        import json

        assert main(["gen", "--seeds", "2", "--json",
                     "--no-disk-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "gen"
        assert payload["ok"] is True
        assert payload["total"] == 2
        assert [p["seed"] for p in payload["programs"]] == [0, 1]
        assert set(payload["check_counts"]) >= {"parity", "ir", "static"}

    def test_gen_seeded_bug_exits_nonzero_with_reproducer(self, capsys):
        assert main(["gen", "--seeds", "1", "--check", "seeded-bug",
                     "--no-disk-cache"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gen:small:0 [seeded-bug]" in out
        assert "replay: repro gen --profile small --seed-start 0" in out
        assert "minimized reproducer" in out

    def test_gen_check_subset_and_errors(self, capsys):
        assert main(["gen", "--seeds", "1", "--check", "ir,lint",
                     "--no-disk-cache"]) == 0
        out = capsys.readouterr().out
        assert "static" not in out
        with pytest.raises(SystemExit, match="unknown generation profile"):
            main(["gen", "--seeds", "1", "--profile", "bogus"])
        with pytest.raises(SystemExit, match="unknown fuzz check"):
            main(["gen", "--seeds", "1", "--check", "nosuch"])

    def test_gen_warm_rerun_reports_fuzz_hits(self, tmp_path, capsys):
        from repro.pipeline import clear_caches

        cache_dir = str(tmp_path / "store")
        clear_caches()  # a prior test's L1 entry would skip the store
        assert main(["gen", "--seeds", "2", "--check", "ir,lint",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        clear_caches()  # drop L1 so the rerun exercises the disk tier
        assert main(["gen", "--seeds", "2", "--check", "ir,lint",
                     "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "cache[fuzz]: 2 hits, 0 misses, 0 stored" in captured.err
        assert "(cached: 2)" in captured.out


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_oversized_trace_block_rejected(self, capsys):
        # Engines raise ValueError above 2**26 accesses per block; the
        # option is refused before anything runs.
        with pytest.raises(SystemExit):
            main(["suite", "adpcm", "--trace-block", str(2**26 + 1)])
        assert "at most 67108864 accesses per block" in capsys.readouterr().err

"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.store import ArtifactStore

DEMO = """
int g[64];
int main() {
    int i;
    for (i = 0; i < 64; i++) g[i] = i;
    return 0;
}
"""


#: The arguments each counting command runs with in- and outside a pool.
POOL_RUNS = {
    "suite": ["adpcm", "gsm"],
    "validate": ["adpcm", "mpeg2"],
    "hier": ["adpcm", "gsm", "--scenarios", "2"],
    "static": ["fig9", "fft", "jpeg"],
    "gen": ["--seeds", "3"],
}


def _no_simulation(*_args, **_kwargs):
    raise AssertionError("simulated on a warm run")


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

    def test_warm_annotated_matches_cold(self, demo_file, tmp_path, capsys,
                                         monkeypatch):
        # The warm run reads the program back from its compile entry.
        from repro.pipeline import clear_caches

        args = ["extract", demo_file, "--annotated", "--cache-dir",
                str(tmp_path / "store")]
        clear_caches()
        assert main(args) == 0
        cold = capsys.readouterr().out
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _no_simulation)
        assert main(args) == 0
        assert capsys.readouterr().out == cold
        assert "CHECKPOINT(" in cold

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

    @pytest.mark.parametrize("command", sorted(POOL_RUNS))
    def test_pool_processes_report_their_counters(self, command, tmp_path,
                                                  capsys):
        # On a fresh store, a run whose cells ran in pool processes
        # prints the counters a serial run prints: each pool process
        # hands back what it counted with each result, and a workload's
        # cells run in one process. Each run here has cells that share a
        # program: validation's profile extraction and self-replay,
        # static scenarios that differ only in their input, two hier
        # scenarios of one workload. Split across processes, they would
        # read from disk (or, racing, compile again) a program a serial
        # run finds in its memory tier.
        from repro.pipeline import clear_caches

        printed, entries = {}, {}
        for jobs in ("1", "2"):
            clear_caches()
            cache_dir = str(tmp_path / jobs)
            assert main([command, *POOL_RUNS[command], "--jobs", jobs,
                         "--cache-dir", cache_dir]) == 0
            printed[jobs] = [line for line in
                             capsys.readouterr().err.splitlines()
                             if line.startswith("cache[")]
            entries[jobs] = {namespace: count for namespace, (count, _size)
                             in ArtifactStore(cache_dir).entry_stats()
                             .items()}
        assert len(printed["1"]) == 6
        assert printed["1"][0].startswith("cache[compile]: 0 hits")
        assert printed["2"] == printed["1"]
        assert entries["2"] == entries["1"]

    def test_invocations_add_up_in_one_tally(self, tmp_path, capsys):
        from repro.pipeline import clear_caches

        cache_dir = tmp_path / "store"
        for names in (["adpcm"], ["adpcm", "gsm"]):
            clear_caches()
            assert main(["suite", *names, "--jobs", "2", "--cache-dir",
                         str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        # adpcm missed, then hit; gsm missed in a pool process.
        assert re.search(r"extraction\s+2\s+\d+\s+1\s+2\s+2",
                         capsys.readouterr().out)
        assert [path.name for path in cache_dir.iterdir()
                if path.is_file()] == ["tally.json"]

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
        # Engines raise ValueError above 2**26 records per block; the
        # option is refused before anything runs.
        with pytest.raises(SystemExit):
            main(["suite", "adpcm", "--trace-block", str(2**26 + 1)])
        assert "at most 67108864 records per block" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["0", "-5"])
    def test_empty_trace_block_rejected(self, block, capsys):
        # A block holds at least one record: 0 used to run at the
        # default block size and -5 at one record per block, each under
        # an extraction key of its own.
        with pytest.raises(SystemExit):
            main(["suite", "adpcm", "--trace-block", block])
        assert "at least 1 record per block" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(POOL_RUNS))
    def test_negative_jobs_rejected(self, command, capsys):
        # 0 means the CPU count; a negative count used to run serially.
        with pytest.raises(SystemExit):
            main([command, "--jobs", "-3"])
        assert "at least 0 worker processes" in capsys.readouterr().err

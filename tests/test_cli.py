from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spincycles
from spincycles import corpus
from spincycles.cli import main

QUINTIC = corpus.read_text("quintic")


def corpus_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(corpus.read_text(name))
    return str(path)


class TestClassify:
    def test_quintic(self, tmp_path, capsys):
        code = main(["classify", corpus_file(tmp_path, "quintic"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "spin"
        assert report["genus"] == 6
        assert report["root_order"] == 2
        assert report["arf"] == 1

    def test_rect(self, tmp_path, capsys):
        code = main(["classify", corpus_file(tmp_path, "rect_4x2"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "hyperelliptic"
        assert report["genus"] == 3
        assert report["hirzebruch"] == {"alpha": 0, "n": 4, "case": "isomorphism"}

    def test_bad_polygon_exit_2(self, tmp_path, capsys):
        assert main(["classify", corpus_file(tmp_path, "bad")]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["classify", "/nonexistent/poly.json"]) == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == 2

    def test_huge_polygon_exit_4_fast(self, tmp_path):
        # a bounding-box scan over ~10^16 points would never finish
        path = tmp_path / "huge.json"
        path.write_text('{"vertices": [[0,0],[100000000,0],[0,100000000]]}')
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spincycles.cli", "classify", str(path)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 4
        assert time.perf_counter() - start < 2
        assert proc.stdout == ""
        assert "MAX_BOX_POINTS = 250000" in proc.stderr

    @pytest.mark.parametrize(
        "command, vertices, budget",
        [
            # 90,601-point box, 45,451 lattice points: ~10^9 pairs
            ("segments", [[0, 0], [300, 0], [0, 300]], "MAX_SEGMENT_PAIRS = 250000"),
            # 249,001-point box, genus 247,009 in the algebraic_even regime
            ("classify", [[0, 0], [498, 0], [498, 498], [0, 498]], "MAX_MODEL_GENUS = 300"),
        ],
    )
    def test_over_work_budget_exit_4_fast(self, tmp_path, command, vertices, budget):
        # both fit the box budget; unbudgeted they ran for minutes
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"vertices": vertices}))
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spincycles.cli", command, str(path)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 4
        assert time.perf_counter() - start < 2
        assert proc.stdout == ""
        assert budget in proc.stderr

    def test_human_output(self, tmp_path, capsys):
        assert main(["classify", corpus_file(tmp_path, "quintic")]) == 0
        out = capsys.readouterr().out
        assert "regime: spin" in out
        assert "genus: 6" in out


class TestQtable:
    def test_quintic(self, tmp_path, capsys):
        code = main(["qtable", corpus_file(tmp_path, "quintic"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["q_a"] == [1] * 6
        assert report["q_b"] == [1, 0, 1, 0, 0, 1]
        assert report["arf"] == 1
        assert report["admissible_count"] == 2080
        assert report["even_points"] == [[1, 1], [1, 3], [3, 1]]

    def test_d7_arf(self, tmp_path, capsys):
        code = main(["qtable", corpus_file(tmp_path, "d7"), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["arf"] == 0

    def test_wrong_regime_exit_3(self, tmp_path, capsys):
        assert main(["qtable", corpus_file(tmp_path, "square_3x3")]) == 3


class TestSegments:
    def test_bridges_flag(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "quintic")
        assert main(["segments", path, "--json"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert main(["segments", path, "--bridges", "--json"]) == 0
        bridges = json.loads(capsys.readouterr().out)
        assert bridges["count"] < full["count"]
        assert all(s["is_bridge"] for s in bridges["segments"])
        assert {"endpoints": [[0, 1], [1, 1]], "is_bridge": True} in bridges[
            "segments"
        ]


class TestVerify:
    def test_generation_g2(self, capsys):
        code = main(["verify", "generation", "--genus", "2", "--arf", "1", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closure_order"] == report["stabilizer_order"] == 120

    def test_generation_needs_flags(self, capsys):
        assert main(["verify", "generation"]) == 3

    def test_generation_genus_cap(self, capsys):
        assert main(["verify", "generation", "--genus", "5", "--arf", "0"]) == 3

    def test_hyperelliptic_word(self, tmp_path, capsys):
        code = main(["verify", "hyperelliptic-word", corpus_file(tmp_path, "rect_4x2")])
        assert code == 0

    def test_hyperelliptic_word_wrong_regime(self, tmp_path, capsys):
        code = main(
            ["verify", "hyperelliptic-word", corpus_file(tmp_path, "quintic")]
        )
        assert code == 3

    def test_chrel2(self, capsys):
        code = main(["verify", "chrel2", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["steps"]) == 5 and report["pass"]

    def test_chain_relation(self, capsys):
        assert main(["verify", "chain-relation", "--genus", "3"]) == 0

    @pytest.mark.parametrize("suite", ["chain-relation", "all"])
    def test_chain_relation_genus_0_exit_2(self, capsys, suite):
        # genus 0 is an input error like genus 1, not the default genus 2
        assert main(["verify", suite, "--genus", "0"]) == 2
        assert "need ambient genus >= 2" in capsys.readouterr().err

    def test_chain_relation_genus_over_budget_exit_4(self, capsys):
        # a 60,000 x 60,000 int64 matrix would not fit in memory
        assert main(["verify", "chain-relation", "--genus", "30000"]) == 4
        assert "MAX_MODEL_GENUS = 300" in capsys.readouterr().err

    def test_q_consistency(self, tmp_path, capsys):
        assert main(["verify", "q-consistency", corpus_file(tmp_path, "d7")]) == 0

    def test_q_consistency_wrong_regime(self, tmp_path, capsys):
        code = main(["verify", "q-consistency", corpus_file(tmp_path, "rect_4x2")])
        assert code == 3

    def test_all_on_polygon(self, tmp_path, capsys):
        code = main(["verify", "all", corpus_file(tmp_path, "quintic"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        suites = [r["suite"] for r in report["results"]]
        assert "q-consistency" in suites and "chrel2" in suites

    def test_cap_exit_4(self, capsys, monkeypatch):
        code = main(
            ["verify", "generation", "--genus", "2", "--arf", "1", "--cap", "10"]
        )
        assert code == 4

    def test_cap_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINCYCLES_CAP", "10")
        assert main(["verify", "generation", "--genus", "2", "--arf", "1"]) == 4

    def test_nonpositive_cap_exit_2(self, capsys, monkeypatch):
        args = ["verify", "generation", "--genus", "2", "--arf", "1"]
        for cap in ("0", "-1"):
            assert main([*args, "--cap", cap]) == 2
            assert f"got {cap}" in capsys.readouterr().err
        monkeypatch.setenv("SPINCYCLES_CAP", "-5")
        assert main(args) == 2
        assert "got -5" in capsys.readouterr().err

    def test_nonpositive_parts_exit_2(self, capsys):
        for parts in ("0", "-1"):
            code = main(
                ["verify", "generation", "--genus", "2", "--arf", "1", "--parts", parts]
            )
            assert code == 2
            assert f"got {parts}" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        code = main(
            ["verify", "chrel2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True


class TestNumpyBoundary:
    def test_polygon_commands_run_without_numpy(self, tmp_path):
        # only the verify path (symplectic, relations) may load numpy
        path = corpus_file(tmp_path, "quintic")
        script = (
            "import sys\n"
            "from spincycles.cli import main\n"
            f"path = {path!r}\n"
            "for argv in (['classify', path], ['qtable', path], ['segments', path]):\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "assert main(['verify', 'all', path]) == 0\n"
            "assert 'numpy' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "quintic")
        outputs = []
        for _ in range(2):
            assert main(["classify", path, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_verify_transcripts_across_parts(self, capsys):
        blobs = []
        for parts in ("1", "4", "8"):
            code = main(
                [
                    "verify", "generation", "--genus", "2", "--arf", "0",
                    "--parts", parts, "--json",
                ]
            )
            assert code == 0
            blobs.append(capsys.readouterr().out)
        assert blobs[0] == blobs[1] == blobs[2]


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenTranscripts:
    """Transcripts pinned byte for byte against files in tests/golden."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["verify", "chrel2"], "chrel2.json"),
            (["verify", "chain-relation", "--genus", "3"], "chain_relation_g3.json"),
            *(
                (
                    ["verify", "generation", "--genus", "3", "--arf", arf, "--parts", parts],
                    f"generation_g3_arf{arf}.json",
                )
                for arf in ("0", "1")
                for parts in ("1", "4")
            ),
        ],
    )
    def test_matches_golden(self, tmp_path, capsys, argv, golden):
        out = tmp_path / golden
        assert main(argv + ["--json", "--out", str(out)]) == 0
        expected = (GOLDEN / golden).read_bytes()
        assert out.read_bytes() == expected
        assert capsys.readouterr().out.encode() == expected

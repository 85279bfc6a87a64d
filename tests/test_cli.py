from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest

import spincycles
from spincycles import cli, corpus
from spincycles.cli import main
from spincycles.polygon import MAX_MODEL_GENUS, SegmentRows
from spincycles.symplectic import MAX_CHAIN_GENUS

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

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_closed_stdout_exit_5(self, tmp_path, mode):
        # a reader that stops early (| head -c 100) closes stdout: that is
        # neither bad input nor a traceback.  The degree-21 triangle writes
        # 3.1 MB of JSON, far past the pipe buffer
        path = tmp_path / "triangle_21.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [21, 0], [0, 21]]}))
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "spincycles.cli", "segments", str(path), *mode],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 5
        assert err.splitlines() == ["output closed: the reader of standard output closed it"]

    def test_closed_stdout_still_completes_out(self, tmp_path):
        # the reader of stdout is gone before the first write; the --out
        # file still equals an uninterrupted run's, byte for byte
        path = tmp_path / "triangle_21.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [21, 0], [0, 21]]}))
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        argv = [sys.executable, "-m", "spincycles.cli", "segments", str(path), "--json", "--out"]
        whole, cut = tmp_path / "whole.json", tmp_path / "cut.json"
        subprocess.run([*argv, str(whole)], stdout=subprocess.DEVNULL, env=env, check=True)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [*argv, str(cut)], stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 5
        assert proc.stderr.decode().splitlines() == [
            "output closed: the reader of standard output closed it"
        ]
        assert cut.read_bytes() == whole.read_bytes()

    def test_deeply_nested_json_exit_2(self, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, on this
        path = tmp_path / "nested.json"
        path.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "spincycles.cli", "classify", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["input error: JSON nested too deeply"]

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

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify"], 2),
            (["qtable"], 2),
            (["segments"], 0),
            (["verify", "q-consistency"], 2),
            (["verify", "hyperelliptic-word"], 2),
            (["verify", "all"], 2),
        ],
    )
    def test_non_smooth_polygon(self, tmp_path, capsys, argv, code):
        # (0,0),(3,0),(0,2) is not smooth: only segments reads no regime
        path = tmp_path / "non_smooth.json"
        path.write_text('{"vertices": [[0, 0], [3, 0], [0, 2]]}')
        assert main(argv + [str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "input error: regime classification requires a smooth polygon\n"
        else:
            assert err == ""


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

    @pytest.mark.parametrize("bridges", [[], ["--bridges"]])
    def test_human_mode_lists_every_row(self, tmp_path, capsys, bridges):
        # the rows are read twice with --out: once for the file, once for
        # the listing
        path = corpus_file(tmp_path, "quintic")
        assert main(["segments", path, *bridges, "--json"]) == 0
        transcript = capsys.readouterr().out
        rows = json.loads(transcript)["segments"]
        out = tmp_path / "segments.json"
        for extra in ([], ["--out", str(out)]):
            assert main(["segments", path, *bridges, *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            listed = [line for line in lines if line.startswith("segments: ")]
            assert len(listed) == 1
            assert json.loads(listed[0][len("segments: "):]) == rows
        assert out.read_text() == transcript

    def test_rows_are_never_all_held(self, tmp_path):
        # 19,551 rows of the d = 21 triangle; holding every row dict (or
        # the whole text) peaks above 10 MB
        path = tmp_path / "tri21.json"
        path.write_text('{"vertices": [[0, 0], [21, 0], [0, 21]]}')
        out = tmp_path / "segments.json"
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert main(["segments", str(path), "--json", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(out.read_text())["count"] == 19551
        assert peak < 8 << 20, peak

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_largest_input_in_bounded_memory(self, tmp_path, mode):
        # 150,492 rows of the degree-36 triangle, the largest admitted
        # input: 1.2 MB packed; as row tuples the peak passes 12 MB, and
        # with the whole human-readable line 34 MB
        path = tmp_path / "tri36.json"
        path.write_text('{"vertices": [[0, 0], [36, 0], [0, 36]]}')
        out = tmp_path / "segments.json"
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert main(["segments", str(path), *mode, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(out.read_text())["count"] == 150492
        assert peak < 4 << 20, peak


class TestVerify:
    def test_generation_g2(self, capsys):
        code = main(["verify", "generation", "--genus", "2", "--arf", "1", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closure_order"] == report["stabilizer_order"] == 120

    def test_generation_needs_flags(self, capsys):
        assert main(["verify", "generation"]) == 3

    def test_generation_genus_cap(self, capsys):
        genus = str(MAX_CHAIN_GENUS + 1)
        assert main(["verify", "generation", "--genus", genus, "--arf", "0"]) == 4
        assert f"MAX_CHAIN_GENUS = {MAX_CHAIN_GENUS}" in capsys.readouterr().err

    @pytest.mark.parametrize("genus", ["0", "-1", "-5"])
    def test_generation_genus_below_one(self, capsys, genus):
        # used to name the record fields: "q_a and q_b must have equal
        # positive length g"
        assert main(["verify", "generation", "--genus", genus, "--arf", "1"]) == 2
        assert capsys.readouterr().err == "input error: generation needs --genus >= 1\n"

    def test_failed_certificate_exit_1_without_traceback(self):
        # T_v composed with the a_1 <-> a_2 column swap fails the transport
        # certificate; the run ends in one stderr line, not a traceback
        script = (
            "import sys\n"
            "from spincycles import cli, symplectic\n"
            "transport = symplectic._transport\n"
            "def swapped(q, q0):\n"
            "    cols = list(transport(q, q0).cols)\n"
            "    cols[0], cols[2] = cols[2], cols[0]\n"
            "    return symplectic.MatF2(len(cols), tuple(cols))\n"
            "symplectic._transport = swapped\n"
            "sys.exit(cli.main(['verify', 'generation', '--genus', '3', '--arf', '1']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "verification failed: transport of qmask 0x2b is not symplectic, not q-transporting"
        ]

    def test_chain_short_of_its_order_exit_1(self, capsys, monkeypatch):
        # genus 2, Arf 0 without the pair swap: the stabilizer chain stops at 36 of 72
        from spincycles import symplectic

        monkeypatch.setattr(symplectic, "_BASES", {})
        monkeypatch.setattr(symplectic, "_pair_swap", symplectic.MatF2.identity)
        assert main(["verify", "all", "--genus", "2", "--arf", "0", "--json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "verification failed: stabilizer chain of qmask 0xa is not of order 72"
        ]

    def test_largest_generation_genus_fast(self):
        # a cold genus-6 verdict took 0.6 s end to end on a 2-core Xeon
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        argv = ["verify", "generation", "--genus", str(MAX_CHAIN_GENUS), "--arf", "1", "--json"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spincycles.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "equal"
        assert elapsed < 6, f"cold genus-{MAX_CHAIN_GENUS} verdict took {elapsed:.2f} s"

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
        # genus 0 is an input error like genus 1, not the default genus 2,
        # and the message names the flag
        for genus in ("0", "1", "-1"):
            assert main(["verify", suite, "--genus", genus]) == 2, genus
            assert capsys.readouterr().err == "input error: chain-relation needs --genus >= 2\n"

    REFUSALS = [
        ("1", ["--arf", "1"], 2, "input error: chain-relation needs --genus >= 2\n"),
        ("0", ["--arf", "1"], 2, "input error: generation needs --genus >= 1\n"),
        (str(MAX_CHAIN_GENUS + 1), ["--arf", "1"], 4, f"MAX_CHAIN_GENUS = {MAX_CHAIN_GENUS}"),
        # no --arf, so no generation step: chain-relation's model budget refuses
        (str(MAX_MODEL_GENUS + 100), [], 4, f"MAX_MODEL_GENUS = {MAX_MODEL_GENUS}"),
    ]

    @pytest.mark.parametrize(
        "genus, arf, code, err", REFUSALS, ids=[f"{g}-{c}-{e}" for g, _, c, e in REFUSALS]
    )
    def test_all_refuses_flags_before_any_suite(
        self, tmp_path, capsys, monkeypatch, genus, arf, code, err
    ):
        from spincycles import spin, symplectic

        def ran(*args):
            raise AssertionError("a suite ran before the flags were checked")

        monkeypatch.setattr(spin, "verify_q_consistency", ran)
        monkeypatch.setattr(symplectic, "verify_transvection_generation", ran)
        quintic = corpus_file(tmp_path, "quintic")
        assert main(["verify", "all", "--genus", genus, *arf, quintic]) == code
        assert err in capsys.readouterr().err

    def test_chain_relation_genus_over_budget_exit_4(self, capsys):
        # a 60,000 x 60,000 int64 matrix would not fit in memory
        assert main(["verify", "chain-relation", "--genus", "30000"]) == 4
        assert "MAX_MODEL_GENUS = 300" in capsys.readouterr().err

    def test_q_consistency(self, tmp_path, capsys):
        assert main(["verify", "q-consistency", corpus_file(tmp_path, "d7")]) == 0

    def test_q_consistency_wrong_regime(self, tmp_path, capsys):
        code = main(["verify", "q-consistency", corpus_file(tmp_path, "rect_4x2")])
        assert code == 3

    @pytest.mark.parametrize(
        "vertices",
        [
            [[-14, 14], [-9, 9], [11, -6]],  # forests: 1
            [[-4, -2], [6, 3], [1, 3]],  # x -> 2x+y-4, y -> x+y-2; forests: 2
        ],
    )
    def test_q_consistency_lattice_images(self, tmp_path, capsys, vertices):
        # fewer distinct forests than on the quintic, same checks: still a pass
        assert main(["verify", "q-consistency", corpus_file(tmp_path, "quintic"), "--json"]) == 0
        expected = json.loads(capsys.readouterr().out)
        path = tmp_path / "image.json"
        path.write_text(json.dumps({"vertices": vertices}))
        assert main(["verify", "q-consistency", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("forests") < expected.pop("forests") == 3
        assert report == expected
        assert main(["verify", "all", str(path)]) == 0

    def test_q_consistency_corrupted_form_exit_1(self, tmp_path, capsys, monkeypatch):
        # flipping q at the even point (1, 1) breaks the parity rule
        from spincycles import spin

        canonical_q = spin.canonical_q

        def corrupted(p):
            q = canonical_q(p)
            return spin.QuadraticForm(q.q_a, (1 - q.q_b[0],) + q.q_b[1:])

        monkeypatch.setattr(spin, "canonical_q", corrupted)
        code = main(["verify", "q-consistency", corpus_file(tmp_path, "quintic"), "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["parity_rule_holds"] is False and report["pass"] is False

    @pytest.mark.parametrize("suite", ["hyperelliptic-word", "q-consistency"])
    def test_suite_needs_polygon_file_exit_3(self, capsys, suite):
        assert main(["verify", suite]) == 3
        assert f"{suite} needs a polygon file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, name, flags",
        [
            ("q-consistency", "quintic", ["--json"]),
            ("hyperelliptic-word", "rect_4x2", ["--out", "OUT"]),
            ("all", "quintic", ["--genus", "3", "--arf", "1"]),
        ],
    )
    def test_options_before_or_after_the_file(self, tmp_path, capsys, suite, name, flags):
        # argparse alone left the optional file empty when options came first
        path = corpus_file(tmp_path, name)
        flags = [str(tmp_path / "out.json") if f == "OUT" else f for f in flags]
        outputs = []
        for argv in ([suite, path] + flags, [suite] + flags + [path]):
            assert main(["verify"] + argv) == 0, argv
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out

    def test_all_on_polygon(self, tmp_path, capsys):
        code = main(["verify", "all", corpus_file(tmp_path, "quintic"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        suites = [r["suite"] for r in report["results"]]
        assert "q-consistency" in suites and "chrel2" in suites

    @pytest.mark.parametrize(
        "name, args, suites",
        [
            ("rect_4x2", [], ["hyperelliptic-word", "chain-relation", "chrel2"]),
            (None, ["--genus", "3", "--arf", "1"], ["generation", "chain-relation", "chrel2"]),
        ],
    )
    def test_all_runs_applicable_suites(self, tmp_path, capsys, name, args, suites):
        files = [corpus_file(tmp_path, name)] if name else []
        assert main(["verify", "all", *files, *args, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["suite"] for r in report["results"]] == suites

    @pytest.mark.parametrize("option, value", [("--parts", "4"), ("--cap", "10")])
    def test_removed_parts_option_exit_2(self, option, value):
        argv = ["verify", "generation", "--genus", "2", "--arf", "1", option, value]
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "spincycles.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert option in proc.stderr

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        code = main(
            ["verify", "chrel2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True


class TestNumpyBoundary:
    def test_polygon_commands_run_without_numpy(self, tmp_path):
        # no command or verdict loads numpy, only the brute-force references
        # do; the generation verdict loads no relation check
        spin = corpus_file(tmp_path, "quintic")
        hyper = corpus_file(tmp_path, "rect_4x2")
        script = (
            "import sys\n"
            "from spincycles.cli import main\n"
            f"spin, hyper = {spin!r}, {hyper!r}\n"
            "for argv in (\n"
            "    ['classify', spin], ['qtable', spin], ['segments', spin],\n"
            "    ['verify', 'all', spin], ['verify', 'all', hyper],\n"
            "    ['verify', 'q-consistency', spin],\n"
            "    ['verify', 'hyperelliptic-word', hyper],\n"
            "    ['verify', 'chain-relation'], ['verify', 'chrel2'],\n"
            "):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, ('numpy imported', argv)\n"
        )
        generation = (
            "import sys\n"
            "from spincycles.cli import main\n"
            "assert main(['verify', 'generation', '--genus', '2', '--arf', '1']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "assert main(['verify', 'generation', '--genus', '6', '--arf', '0']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "assert 'spincycles.relations' not in sys.modules, 'relations imported'\n"
        )
        references = (
            "import sys\n"
            "from spincycles import symplectic\n"
            "from spincycles.spin import standard_form\n"
            "q = standard_form(3, 1)\n"
            "symplectic.verify_transvection_generation(q)\n"
            "symplectic.q_orbit_partition(q)\n"
            "symplectic.verify_arf_classification(3)\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "assert symplectic.closure(symplectic.chain_transvections(1)).order == 6\n"
            "assert 'numpy' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        for code in (script, generation, references):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert proc.returncode == 0, proc.stderr

    def test_polygon_commands_load_no_fractions(self, tmp_path):
        # the bridge clip is integer arithmetic: neither fractions nor the
        # decimal module it loads is imported by the CLI or a segments run
        script = (
            "import sys\n"
            "import spincycles.cli\n"
            "assert not {'fractions', 'decimal'} & set(sys.modules), 'imported'\n"
            f"assert spincycles.cli.main(['segments', {corpus_file(tmp_path, 'quintic')!r}]) == 0\n"
            "assert not {'fractions', 'decimal'} & set(sys.modules), 'imported by segments'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_start_loads_only_what_its_command_reads(self, tmp_path):
        # the records need no dataclasses, cli loads the spin form only in
        # the branches that read one, and the spin form loads the homology
        # model only where q-consistency reads its forests
        quintic = corpus_file(tmp_path, "quintic")
        rect = corpus_file(tmp_path, "rect_4x2")
        out = str(tmp_path / "out.json")
        start = (
            "import sys\n"
            "import spincycles.cli\n"
            "unloaded = lambda *names: not set(names) & set(sys.modules)\n"
            "assert unloaded('dataclasses', 'spincycles.spin', 'spincycles.homology',\n"
            "                'spincycles.relations', 'spincycles.symplectic'), 'import'\n"
        )
        polygon_commands = start + (
            f"assert spincycles.cli.main(['segments', {quintic!r}, '--json', '--out', {out!r}]) == 0\n"
            f"assert spincycles.cli.main(['segments', {quintic!r}, '--bridges']) == 0\n"
            f"assert spincycles.cli.main(['classify', {rect!r}, '--json']) == 0\n"
            "assert unloaded('spincycles.spin', 'spincycles.homology'), 'segments, classify'\n"
            f"assert spincycles.cli.main(['verify', 'hyperelliptic-word', {rect!r}]) == 0\n"
            "assert unloaded('spincycles.spin', 'dataclasses'), 'hyperelliptic-word'\n"
        )
        spin_commands = start + (
            f"assert spincycles.cli.main(['classify', {quintic!r}]) == 0\n"
            "assert not unloaded('spincycles.spin'), 'the spin branch reads the form'\n"
            "assert unloaded('dataclasses', 'spincycles.homology'), 'spin classify'\n"
            f"assert spincycles.cli.main(['qtable', {quintic!r}]) == 0\n"
            "assert unloaded('spincycles.homology'), 'qtable'\n"
            f"assert spincycles.cli.main(['verify', 'q-consistency', {quintic!r}]) == 0\n"
            "assert not unloaded('spincycles.homology'), 'q-consistency reads forests'\n"
            "assert spincycles.cli.main(['verify', 'generation', '--genus', '3', '--arf', '1']) == 0\n"
            "assert unloaded('dataclasses'), 'the group verdicts use records too'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        for script in (polygon_commands, spin_commands):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert proc.returncode == 0, proc.stderr

    def test_q_consistency_refuses_before_loading_homology(self, tmp_path):
        # a polygon outside the spin regimes is refused before the model loads
        rect = corpus_file(tmp_path, "rect_4x2")
        script = (
            "import sys\n"
            "import spincycles.cli\n"
            f"assert spincycles.cli.main(['verify', 'q-consistency', {rect!r}]) == 3\n"
            "assert 'spincycles.homology' not in sys.modules, 'homology loaded'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spincycles.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("inapplicable: q-consistency applies to")

    def test_symplectic_starts_no_thread_pool(self):
        # the BFS runs on one thread: no executor module is imported
        script = (
            "import sys\n"
            "import spincycles.symplectic\n"
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures imported'\n"
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


GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(corpus.__file__).parent


class TestGoldenTranscripts:
    """Transcripts pinned byte for byte against files in tests/golden."""

    ARGV = {
        "chrel2": ["verify", "chrel2"],
        "chain_relation_g3": ["verify", "chain-relation", "--genus", "3"],
        **{
            f"generation_g{g}_arf{arf}": ["verify", "generation", "--genus", str(g), "--arf", arf]
            for g in range(3, MAX_CHAIN_GENUS + 1)
            for arf in ("0", "1")
        },
        # qtable on rect_4x2 is inapplicable (exit 3), so it has no transcript
        **{
            f"{name}_{polygon}": [*argv, str(CORPUS / f"{polygon}.json")]
            for polygon in ("quintic", "rect_4x2")
            for name, argv in (
                ("classify", ["classify"]),
                ("qtable", ["qtable"]),
                ("segments", ["segments"]),
                ("bridges", ["segments", "--bridges"]),
            )
            if (name, polygon) != ("qtable", "rect_4x2")
        },
        "hyperelliptic_word_rect_4x2": [
            "verify", "hyperelliptic-word", str(CORPUS / "rect_4x2.json"),
        ],
        "q_consistency_quintic": ["verify", "q-consistency", str(CORPUS / "quintic.json")],
        # its `results` list nests whole suite transcripts
        "all_quintic_g3_arf1": [
            "verify", "all", str(CORPUS / "quintic.json"), "--genus", "3", "--arf", "1",
        ],
    }

    @pytest.mark.parametrize("golden", list(ARGV))
    def test_matches_golden(self, tmp_path, capsys, golden):
        out = tmp_path / f"{golden}.json"
        assert main(self.ARGV[golden] + ["--json", "--out", str(out)]) == 0
        expected = (GOLDEN / f"{golden}.json").read_bytes()
        assert out.read_bytes() == expected
        assert capsys.readouterr().out.encode() == expected

    def test_cap_env_var_ignored(self, tmp_path, capsys, monkeypatch):
        # the chain budget is MAX_CHAIN_GENUS alone: no value of the former
        # SPINCYCLES_CAP changes an exit code or a transcript
        for value in ("abc", "-5", "10"):
            monkeypatch.setenv("SPINCYCLES_CAP", value)
            for golden in ("chrel2", "generation_g3_arf1"):
                out = tmp_path / f"{golden}.json"
                assert main(self.ARGV[golden] + ["--out", str(out)]) == 0, value
                assert out.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()
        capsys.readouterr()


def _seeded_value(rng: random.Random, depth: int):
    """A random JSON-encodable value with the scalars json.dumps special-cases."""
    strings = (
        "", "plain", 'quote " backslash \\ slash /', "tab\tnewline\ncontrol\x01",
        "caf\u00e9 \u2603 \U0001d11e", "\u2028",
    )
    scalars = (0, -7, 2**64 + 3, -(2**70), True, False, None, 1.5, -0.0, 1e300, *strings)
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(scalars)
    size = rng.randrange(4)
    kind = rng.randrange(3)
    if kind == 0:
        return {rng.choice(strings) + str(i): _seeded_value(rng, depth - 1) for i in range(size)}
    items = [_seeded_value(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def row_dicts(rows: SegmentRows) -> list:
    """The transcript's segment list, built from the rows' tuples."""
    return [{"endpoints": [list(a), list(b)], "is_bridge": is_bridge} for a, b, is_bridge in rows]


def human_lines(report: dict) -> str:
    """The human-readable text: one ``key: value`` line per member, a dict,
    a list or segment rows as ``json.dumps`` writes it on one line."""
    lines = []
    for key, value in report.items():
        if isinstance(value, SegmentRows):
            value = json.dumps(row_dicts(value))
        elif isinstance(value, (dict, list)):
            value = json.dumps(value)
        lines.append(f"{key}: {value}\n")
    return "".join(lines)


class TestWriter:
    """``_emit`` writes exactly ``json.dumps(report, indent=2) + "\\n"``,
    and in human-readable mode ``human_lines(report)``."""

    ARGV = [
        ["verify", "generation", "--genus", "3", "--arf", "1"],
        ["verify", "chain-relation", "--genus", "3"],
        ["verify", "chrel2"],
        ["verify", "all", "--genus", "2", "--arf", "0"],
    ]
    FILE_ARGV = [
        ["classify"], ["qtable"], ["segments"], ["segments", "--bridges"],
        ["verify", "hyperelliptic-word"], ["verify", "q-consistency"], ["verify", "all"],
    ]

    # translates of the quintic and of the degree-7 triangle into negative
    # coordinates: segment rows with signs, and with both is_bridge values
    TRANSLATED = {
        "quintic_moved": [[-7, -3], [-2, -3], [-7, 2]],
        "triangle_d7_moved": [[-4, -9], [3, -9], [-4, -2]],
    }

    @pytest.mark.parametrize("name", [*corpus.names(), *TRANSLATED, None])
    def test_every_transcript(self, tmp_path, capsys, monkeypatch, name):
        reports = []
        emit = cli._emit

        def recording(report, as_json, out):
            reports.append(report)
            emit(report, as_json, out)

        monkeypatch.setattr(cli, "_emit", recording)
        if name is None:
            runs = self.ARGV
        elif name in self.TRANSLATED:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"vertices": self.TRANSLATED[name]}))
            runs = [[*argv, str(path)] for argv in self.FILE_ARGV]
        else:
            path = corpus_file(tmp_path, name)
            runs = [[*argv, path] for argv in self.FILE_ARGV]
        out = tmp_path / "out.json"
        written = 0
        for argv in runs:
            reports.clear()
            main([*argv, "--json", "--out", str(out)])
            stdout = capsys.readouterr().out
            if not reports:  # an input error or an inapplicable suite
                assert stdout == ""
                continue
            # the packed segment rows are not a list; row_dicts reads them
            expected = json.dumps(reports[0], indent=2, default=row_dicts) + "\n"
            assert stdout == expected, argv
            assert out.read_text() == expected, argv
            out.unlink()
            cli._emit(reports[0], False, str(out))
            assert capsys.readouterr().out == human_lines(reports[0]), argv
            assert out.read_text() == expected, argv
            written += 1
        assert written or name == "bad"

    def test_seeded_values(self, tmp_path, capsys):
        rng = random.Random(26)
        out = tmp_path / "out.json"
        reports = [{}, {"empty": [], "also": {}, "tuple": ()}]
        reports += [
            {f"k{i}": _seeded_value(rng, 4) for i in range(rng.randrange(6))}
            for _ in range(300)
        ]
        for report in reports:
            cli._emit(report, True, str(out))
            expected = json.dumps(report, indent=2) + "\n"
            assert capsys.readouterr().out == expected
            assert out.read_text() == expected

    def test_seeded_segment_rows(self, tmp_path, capsys):
        # row sets, empty ones included, at any member position among
        # seeded values
        rng = random.Random(38)
        out = tmp_path / "out.json"

        def segment():
            while True:
                dx, dy = rng.randrange(-9, 10), rng.randrange(-9, 10)
                if math.gcd(dx, dy) == 1:
                    break
            a = (rng.randrange(-99, 100), rng.randrange(-99, 100))
            return (*sorted((a, (a[0] + dx, a[1] + dy))), rng.random() < 0.5)

        def packed(segments):
            # the rows type's packing over the sorted endpoints, n of them:
            # ((i * n + j) << 1) | is_bridge for the row of points i and j
            points = sorted({pt for a, b, _ in segments for pt in (a, b)})
            index = {pt: i for i, pt in enumerate(points)}
            n = len(points)
            return SegmentRows(
                points,
                array("q", [((index[a] * n + index[b]) << 1) | bridge for a, b, bridge in segments]),
            )

        empty, drawn = 0, []
        for _ in range(200):
            members = [_seeded_value(rng, 3) for _ in range(rng.randrange(5))]
            for _ in range(rng.randrange(1, 3)):
                segments = [segment() for _ in range(rng.choice((0, 1, 5)))]
                rows = packed(segments)
                assert list(rows) == segments
                empty += not rows
                drawn += segments
                members.insert(rng.randrange(len(members) + 1), rows)
            report = {f"k{i}": value for i, value in enumerate(members)}
            expected = json.dumps(report, indent=2, default=row_dicts) + "\n"
            for as_json, stdout in ((True, expected), (False, human_lines(report))):
                cli._emit(report, as_json, str(out))
                assert capsys.readouterr().out == stdout
                assert out.read_text() == expected
        assert empty
        assert {bridge for _, _, bridge in drawn} == {False, True}
        assert min(x for a, b, _ in drawn for x in (*a, *b)) < 0

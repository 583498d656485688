import functools
import hashlib

import pytest

from expander_codes import cli, gen_left_regular, improved_radius, load, store
from expander_codes.cli import main
from conftest import tri3_graph


@pytest.fixture
def tri3_file(tmp_path):
    path = tmp_path / "tri3.graph"
    path.write_text(store(tri3_graph()))
    return str(path)


def _word_file(tmp_path, text, name="word.txt"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


class TestGen:
    def test_gen_roundtrip(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(["gen", "-n", "10", "-m", "7", "-d", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        g = load(out.read_text())
        assert (g.n_left, g.m_right, g.d_left) == (10, 7, 3)

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen", "-n", "10", "-m", "7", "-d", "3", "--seed", "5",
                  "--out", str(out)])
        assert a.read_text() == b.read_text()

    def test_gen_biregular(self, tmp_path, capsys):
        assert main(["gen", "-n", "6", "-m", "4", "-d", "2",
                     "--kind", "biregular"]) == 0
        g = load(capsys.readouterr().out)
        assert set(g.right_degrees) == {3}

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["gen", "-n", "4", "-m", "3", "-d", "5"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_pass(self, tri3_file, capsys):
        assert main(["verify", "--graph", tri3_file,
                     "--alpha", "1/3", "--eps", "0.1"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_fail_reports_witness(self, tri3_file, capsys):
        assert main(["verify", "--graph", tri3_file,
                     "--alpha", "2/3", "--eps", "0.2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("FAIL") and "size 2" in out

    def test_missing_graph_exit_2(self, tmp_path):
        assert main(["verify", "--graph", str(tmp_path / "nope"),
                     "--alpha", "1/3", "--eps", "0.1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha", "1/3", "--eps", "1/10"],
        ["profile"],
    ])
    def test_sampled_zero_trials_exit_2(self, tri3_file, capsys, argv):
        cmd, *rest = argv
        assert main([cmd, "--graph", tri3_file, *rest,
                     "--sampled", "--trials", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: trials must be >= 1")


    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha", "2/3", "--eps", "1/10"],
        ["profile", "--smax", "2"],
    ])
    def test_sampled_over_budget_exit_2(self, tri3_file, capsys, argv):
        # 6 trials at each of 2 sizes draw 12 subsets, over a budget of 11
        cmd, *rest = argv
        assert main([cmd, "--graph", tri3_file, *rest,
                     "--sampled", "--trials", "6", "--budget", "11"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: sampled profile needs 12 subsets > budget 11")


class TestProfileDistance:
    def test_profile_csv(self, tri3_file, capsys):
        assert main(["profile", "--graph", tri3_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "size,min_neighbors,expansion_ratio,witness,mode"
        assert len(lines) == 4

    def test_distance(self, tri3_file, capsys):
        assert main(["distance", "--graph", tri3_file,
                     "--alpha", "2/3", "--eps", "1/4"]) == 0
        out = capsys.readouterr().out
        assert "distance 3" in out and "certified floor 2" in out

    def test_nullspace_export(self, tri3_file, tmp_path):
        out = tmp_path / "basis.txt"
        assert main(["distance", "--graph", tri3_file,
                     "--nullspace-out", str(out)]) == 0
        assert out.read_text() == "111\n"

    def test_nullspace_export_runs_one_elimination(self, tmp_path, eliminations):
        graph, out = tmp_path / "g.graph", tmp_path / "basis.txt"
        graph.write_text(store(gen_left_regular(24, 18, 4, 2)))
        assert main(["distance", "--graph", str(graph),
                     "--nullspace-out", str(out)]) == 0
        # the distance and the export share the graph's one code basis
        assert len(eliminations) == 1
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "02e748109256b4b4ef4ec8c07504a718d712ef88a79ed9970c7f15f9a9abc383"


class TestDecode:
    def test_erasure_success(self, tri3_file, tmp_path, capsys):
        word = _word_file(tmp_path, "1?1")
        assert main(["decode", "--graph", tri3_file, "--algo", "erasure",
                     word]) == 0
        assert "success 111" in capsys.readouterr().out

    def test_erasure_failure_exit_1(self, tri3_file, tmp_path, capsys):
        word = _word_file(tmp_path, "???")
        assert main(["decode", "--graph", tri3_file, "--algo", "erasure",
                     word]) == 1
        assert "stalled" in capsys.readouterr().out

    def test_ss_flip(self, tri3_file, tmp_path, capsys):
        word = _word_file(tmp_path, "110")
        assert main(["decode", "--graph", tri3_file, "--algo", "ss-flip",
                     "--eps", "0", "--threshold", "1", word]) == 0
        assert "success 111" in capsys.readouterr().out

    def test_missing_params_exit_2(self, tri3_file, tmp_path):
        word = _word_file(tmp_path, "100")
        for algo in ("viderman", "ss-flip"):
            assert main(["decode", "--graph", tri3_file, "--algo", algo,
                         word]) == 2

    def test_internal_error_exit_3(self, tri3_file, tmp_path, capsys):
        # beta = 1/1000 makes the guess-flip search 1099 levels deep, which
        # overruns the interpreter's recursion limit
        word = _word_file(tmp_path, "100")
        assert main(["decode", "--graph", tri3_file, "--alpha", "1/3",
                     "--eps", "1/8", "--algo", "guess-flip",
                     "--beta", "1/1000", word]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: internal: RecursionError: ")


class TestSweepCli:
    def test_byte_identical_runs(self, tmp_path):
        graph = tmp_path / "g.graph"
        main(["gen", "-n", "12", "-m", "9", "-d", "3", "--seed", "1",
              "--out", str(graph)])
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(["sweep", "--graph", str(graph), "--algo", "erasure",
                         "--radius-from", "0", "--radius-to", "2",
                         "--trials", "4", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0].startswith("algorithm,")

    def test_sampled_over_budget_exit_2(self, tri3_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--graph", tri3_file, "--algo", "viderman",
                     "--alpha", "1/3", "--eps", "1/8", "--radius-from", "0",
                     "--radius-to", "2", "--trials", "11", "--budget", "10",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: uniform-random-set model needs 11 trials > budget 10")
        assert not out.exists()


class TestRadiiCli:
    def test_list_radius_row(self, capsys):
        assert main(["list-radius", "--delta", "0.05", "--dmax", "9"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("delta,theta,")
        assert out[1].split(",")[7] == "fixed-point"

    def test_list_radius_from_alpha_eps(self, capsys):
        assert main(["list-radius", "--alpha", "1/100", "--eps", "1/10",
                     "--dr", "30", "--dmax", "33"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert "True" in row

    def test_list_radius_needs_inputs(self, capsys):
        assert main(["list-radius", "--dmax", "9"]) == 2

    def test_list_radius_zero_eps_exit_2(self, capsys):
        assert main(["list-radius", "--dmax", "9", "--alpha", "1/10",
                     "--eps", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: need --delta, or --alpha with a positive --eps"]

    def test_list_radius_non_convergence_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "improved_radius", functools.partial(improved_radius, tol=-1.0)
        )
        assert main(["list-radius", "--delta", "0.05", "--dmax", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: bisection did not converge")

    def test_report_radii(self, capsys):
        assert main(["report-radii", "--alpha", "0.01", "--eps", "1/8"]) == 0
        out = capsys.readouterr().out
        assert "1/25" in out and "3/200" in out

import dataclasses

import numpy as np
import pytest

import biharmonic.cli
import biharmonic.linalg
import biharmonic.metrics
from biharmonic import (
    complete_graph,
    cycle_graph,
    k4_minus,
    path_graph,
    wheel_graph,
    write_edge_list,
)
from biharmonic.cli import main


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        path = tmp_path / name
        write_edge_list(g, path)
        return str(path)

    return write


class TestGen:
    def test_complete(self, tmp_path, capsys):
        out_path = tmp_path / "k4.g"
        assert main(["gen", "complete", "4", "-o", str(out_path)]) == 0
        out, _ = capsys.readouterr()
        assert out == f"wrote {out_path}: n=4 m=6\n"
        assert out_path.read_text() == "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

    def test_hypercube_roundtrips_through_verify(self, tmp_path, capsys):
        out_path = tmp_path / "q3.g"
        assert main(["gen", "hypercube", "3", "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 0
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines)
        assert lines[-1].startswith("PASS closed-form-vs-spectral")

    def test_unknown_family(self, tmp_path, capsys):
        code = main(["gen", "moebius", "4", "-o", str(tmp_path / "x.g")])
        _, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error:")

    def test_bad_parameter(self, tmp_path, capsys):
        assert main(["gen", "wheel", "3", "-o", str(tmp_path / "x.g")]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error:")


class TestDist:
    def test_default_method(self, graph_file, capsys):
        path = graph_file("k4m.g", k4_minus())
        assert main(["dist", path, "0", "2"]) == 0
        out, _ = capsys.readouterr()
        assert out == "0.353553390593\n"

    def test_each_method(self, graph_file, capsys):
        path = graph_file("w5.g", wheel_graph(5))
        for method in ("spectral", "pinv", "det", "minnorm"):
            assert main(["dist", path, "1", "3", "--method", method]) == 0
            out, _ = capsys.readouterr()
            assert out == "0.471404520791\n"

    def test_all_methods(self, graph_file, capsys):
        path = graph_file("w5.g", wheel_graph(5))
        assert main(["dist", path, "1", "3", "--method", "all"]) == 0
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert lines[:4] == [
            "spectral 0.471404520791",
            "pinv 0.471404520791",
            "det 0.471404520791",
            "minnorm 0.471404520791",
        ]
        spread = float(lines[4].removeprefix("spread "))
        assert 0.0 <= spread <= 1e-8

    @pytest.mark.parametrize("method", ["spectral", "pinv", "det", "minnorm", "all"])
    def test_same_vertex(self, graph_file, capsys, method):
        path = graph_file("p3.g", path_graph(3))
        assert main(["dist", path, "1", "1", "--method", method]) == 0
        out, err = capsys.readouterr()
        if method == "all":
            assert out == "spectral 0\npinv 0\ndet 0\nminnorm 0\nspread 0\n"
        else:
            assert out == "0\n"
        assert err == ""

    def test_vertex_out_of_range(self, graph_file, capsys):
        path = graph_file("k4.g", complete_graph(4))
        assert main(["dist", path, "0", "7"]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "two.g"
        path.write_text("4 2\n0 1\n2 3\n")
        assert main(["dist", str(path), "0", "1"]) == 2
        _, err = capsys.readouterr()
        assert "disconnected" in err


class TestDistFailsClosed:
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize("method", ["det", "all"])
    def test_non_finite_route_exit_one(self, graph_file, capsys, monkeypatch, method, bad):
        def route(cache, u, v):
            return bad

        monkeypatch.setitem(biharmonic.metrics.ROUTES, "det", route)
        path = graph_file("w5.g", wheel_graph(5))
        assert main(["dist", path, "1", "3", "--method", method]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-finite result: det ")
        assert err.count("\n") == 1


def _with_inf_eigenvector_entry(state, eig=biharmonic.metrics.SpectralCache.eig):
    # The default binds the unpatched state property, which the test replaces.
    eig = eig.func(state)
    z = eig.eigenvectors.copy()
    z[1, 2] = float("inf")
    return dataclasses.replace(eig, eigenvectors=z)


def _with_nan_entry(graph_or_cache, distance_matrix=biharmonic.metrics.distance_matrix):
    # The default binds the unpatched function, which the test replaces by this one.
    dm = distance_matrix(graph_or_cache)
    dm[1, 2] = dm[2, 1] = float("nan")
    return dm


class TestOutputFailsClosed:
    """index, matrix and bounds refuse a nan or inf as dist does: exit 1,
    nothing on stdout, one error line naming the value."""

    @pytest.mark.parametrize(
        "argv, name, patch, error",
        [
            (["index"], "biharmonic_index_spectral", lambda cache: float("inf"), "B inf"),
            (["index"], "kirchhoff_index", lambda cache: float("nan"), "Kf nan"),
            (["matrix"], "distance_matrix", _with_nan_entry, "d(1, 2) nan"),
            (
                ["bounds", "1", "3"],
                "SpectralCache.eig",
                property(_with_inf_eigenvector_entry),
                "value inf",
            ),
        ],
        ids=["index-B-inf", "index-Kf-nan", "matrix-nan", "bounds-inf"],
    )
    def test_non_finite_exit_one(self, graph_file, capsys, monkeypatch, argv, name, patch, error):
        monkeypatch.setattr(f"biharmonic.metrics.{name}", patch)
        path = graph_file("w5.g", wheel_graph(5))
        assert main([argv[0], path, *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: non-finite result: {error}\n"


class TestMatrix:
    def test_p3(self, graph_file, capsys):
        path = graph_file("p3.g", path_graph(3))
        assert main(["matrix", path]) == 0
        out, _ = capsys.readouterr()
        assert out == (
            "v0,v1,v2\n"
            "0,0.816496580928,1.41421356237\n"
            "0.816496580928,0,0.816496580928\n"
            "1.41421356237,0.816496580928,0\n"
        )

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "two.g"
        path.write_text("4 2\n0 1\n2 3\n")
        assert main(["matrix", str(path)]) == 2
        capsys.readouterr()


class TestIndex:
    def test_k4_equalities(self, graph_file, capsys):
        path = graph_file("k4.g", complete_graph(4))
        assert main(["index", path]) == 0
        out, _ = capsys.readouterr()
        assert out == "B 0.75\nKf 3\nBRK 0.75 equality\nfloor 0.75 equality\n"

    def test_p3_strict(self, graph_file, capsys):
        path = graph_file("p3.g", path_graph(3))
        assert main(["index", path]) == 0
        out, _ = capsys.readouterr()
        assert out == "B 3.33333333333\nKf 4\nBRK 2.66666666667\nfloor 0.666666666667\n"

    def test_violated_inequality_exit_one(self, graph_file, capsys, monkeypatch):
        monkeypatch.setattr(biharmonic.metrics, "biharmonic_index_spectral", lambda cache: 0.5)
        path = graph_file("p3.g", path_graph(3))
        assert main(["index", path]) == 1
        _, err = capsys.readouterr()
        assert err.startswith("error: index inequality violated: 0.5 < ")
        assert err.count("\n") == 1


class TestVerify:
    def test_passes_exit_zero(self, graph_file, capsys):
        path = graph_file("k4m.g", k4_minus())
        assert main(["verify", path]) == 0
        out, _ = capsys.readouterr()
        assert all(line.startswith("PASS ") for line in out.splitlines())

    def test_failure_exit_one(self, graph_file, capsys, monkeypatch):
        monkeypatch.setattr(
            biharmonic.metrics, "biharmonic_index_pairwise", lambda cache: 999.0
        )
        path = graph_file("w6.g", wheel_graph(6))
        assert main(["verify", path]) == 1
        out, _ = capsys.readouterr()
        assert "FAIL index-consistency:" in out

    def test_disconnected_exit_two(self, tmp_path, capsys):
        path = tmp_path / "two.g"
        path.write_text("4 2\n0 1\n2 3\n")
        assert main(["verify", str(path)]) == 2
        _, err = capsys.readouterr()
        assert "disconnected" in err

    def test_infinite_route_exit_one(self, graph_file, capsys, monkeypatch):
        monkeypatch.setitem(biharmonic.metrics.ROUTES, "det", lambda cache, u, v: float("inf"))
        path = graph_file("k4.g", complete_graph(4))
        assert main(["verify", path]) == 1
        out, _ = capsys.readouterr()
        assert "FAIL four-method-agreement: max relative spread nan" in out


class TestNumericalDefects:
    def assert_exit_one(self, capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_arithmetic_error(self, graph_file, capsys, monkeypatch):
        def defect(cache):
            raise ArithmeticError("negative squared distance -1.0")

        monkeypatch.setattr(biharmonic.metrics, "distance_matrix", defect)
        path = graph_file("p3.g", path_graph(3))
        self.assert_exit_one(capsys, ["matrix", path], "negative squared distance -1.0")

    def test_negative_radicand_in_matrix(self, graph_file, capsys, monkeypatch):
        # Off the diagonal d_i + d_j - 2 p_ij = 2 RADICAND_FLOOR, past the floor.
        bad = -biharmonic.metrics.RADICAND_FLOOR * (1.0 - np.eye(3))
        monkeypatch.setattr(biharmonic.metrics.SpectralCache, "pinv2", property(lambda self: bad))
        with pytest.raises(ArithmeticError):
            biharmonic.metrics.distance_matrix(path_graph(3))
        path = graph_file("p3.g", path_graph(3))
        self.assert_exit_one(capsys, ["matrix", path], "negative squared distance -2e-12")

    def test_eigensolver_failure(self, graph_file, capsys, monkeypatch):
        def defect(a, *args, **kwargs):
            raise np.linalg.LinAlgError("QL iteration did not converge")

        monkeypatch.setattr(biharmonic.linalg, "jacobi_eigh", defect)
        path = graph_file("p3.g", path_graph(3))
        self.assert_exit_one(capsys, ["index", path], "QL iteration did not converge")

    def test_cholesky_failure(self, graph_file, capsys, monkeypatch):
        def defect(a):
            raise np.linalg.LinAlgError("matrix is not positive definite")

        monkeypatch.setattr(biharmonic.metrics, "cholesky", defect)
        path = graph_file("p3.g", path_graph(3))
        argv = ["dist", path, "0", "2", "--method", "minnorm"]
        self.assert_exit_one(capsys, argv, "matrix is not positive definite")


class TestBounds:
    def test_k4_minus(self, graph_file, capsys):
        path = graph_file("k4m.g", k4_minus())
        assert main(["bounds", path, "0", "2"]) == 0
        out, _ = capsys.readouterr()
        assert out == (
            "lower 0.353553390593\n"
            "value 0.353553390593\n"
            "upper 0.707106781187\n"
            "lower-attained true\n"
            "upper-attained false\n"
            "sigmaN {2} orthogonal true\n"
            "sigma2 {3,4} orthogonal false\n"
        )

    def test_w5_upper(self, graph_file, capsys):
        path = graph_file("w5.g", wheel_graph(5))
        assert main(["bounds", path, "1", "3"]) == 0
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert "upper-attained true" in lines
        assert "sigma2 {4,5} orthogonal true" in lines

    def test_same_vertex_rejected(self, graph_file, capsys):
        path = graph_file("k4.g", complete_graph(4))
        assert main(["bounds", path, "2", "2"]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error:")


class TestErrorsAndDeterminism:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["dist", str(tmp_path / "nope.g"), "0", "1"]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.g"
        path.write_text("2 1\n0 5\n")
        assert main(["index", str(path)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["dist", "{path}", "0", "1_0"], ["bounds", "{path}", "1_0", "0"], ["gen", "path", "1_1", "-o", "{path}"]],
        ids=["dist", "bounds", "gen"],
    )
    def test_integer_text_is_strict(self, graph_file, capsys, argv):
        # int() alone would read "1_0" as vertex 10 of this 11-vertex path.
        path = graph_file("p11.g", path_graph(11))
        assert main([a.format(path=path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "must be an integer, got '1_" in err

    def test_missing_arguments(self, capsys):
        assert main(["dist"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "gen" in out and "bounds" in out

    def test_byte_identical_reruns(self, graph_file, capsys):
        path = graph_file("c9.g", cycle_graph(9))
        transcripts = []
        for _ in range(2):
            chunks = []
            for argv in (
                ["matrix", path],
                ["dist", path, "0", "4", "--method", "all"],
                ["index", path],
                ["bounds", path, "0", "4"],
                ["verify", path],
            ):
                assert main(argv) == 0
                out, _ = capsys.readouterr()
                chunks.append(out)
            transcripts.append("".join(chunks))
        assert transcripts[0] == transcripts[1]

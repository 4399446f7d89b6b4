import json

from torcrys import cli
from torcrys.cli import (EXIT_NOT_CLOSED, EXIT_OK, EXIT_SPECIALIZATION,
                         EXIT_UNSUPPORTED, EXIT_USAGE, EXIT_VALIDATION, main)
from torcrys.qcoeff import SpecializationError
from torcrys.torep import ConstructionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_even_n(capsys):
    code, out, err = run(capsys, "crystal", "gen", "--n", "4", "--ell", "1")
    assert code == EXIT_USAGE
    assert "odd" in err


def test_crystal_gen_text_and_default_window(capsys):
    code, out, _ = run(capsys, "crystal", "gen", "--n", "3", "--ell", "1")
    assert code == EXIT_OK
    assert "window=(-16, 16)" in out  # recorded default window
    assert "Y(0,1)^-1*Y(1,0)" in out


def test_crystal_gen_dot(capsys):
    code, out, _ = run(capsys, "crystal", "gen", "--n", "3", "--ell", "1",
                       "--lmin", "-8", "--lmax", "12", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_crystal_gen_json_deterministic(capsys):
    args = ("crystal", "gen", "--n", "3", "--ell", "2", "--lmin", "-6",
            "--lmax", "8", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    data = json.loads(out1)
    assert data["meta"]["n"] == 3 and data["graph"]["nodes"]


def test_tableaux_list(capsys):
    code, out, _ = run(capsys, "tableaux", "list", "--n", "3", "--ell", "2")
    assert code == EXIT_OK
    assert "1,2;0\tY(0,2)^-1*Y(2,0)" in out


def test_closed_not_closed_exit(capsys):
    code, out, _ = run(capsys, "closed", "--n", "5", "--ell", "2")
    assert code == EXIT_NOT_CLOSED
    assert "closed\tno" in out
    assert "Y(" in out  # a witness monomial is printed


def test_closed_ok(capsys):
    code, out, _ = run(capsys, "closed", "--n", "3", "--ell", "1")
    assert code == EXIT_OK
    assert out.strip().endswith("yes")


def test_rep_check_ok(capsys):
    code, out, _ = run(capsys, "rep", "check", "--n", "3", "--ell", "1",
                       "--lmin", "-10", "--lmax", "14", "--rmax", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["all_residuals_zero"] is True
    assert data["fr_discrepancies"] == []


def test_rep_build_refused_for_open_crystal(capsys):
    code, out, err = run(capsys, "rep", "build", "--n", "5", "--ell", "2")
    assert code == EXIT_NOT_CLOSED
    assert "not closed" in err


def test_rep_qchar(capsys):
    code, out, _ = run(capsys, "rep", "qchar", "--n", "3", "--ell", "1",
                       "--periods", "1")
    assert code == EXIT_OK
    assert "Y(0,1)^-1*Y(1,0)" in out


def test_s5_build_and_check(capsys):
    code, out, _ = run(capsys, "s5", "build", "--smax", "1")
    assert code == EXIT_OK
    assert json.loads(out)["dimension_window"] > 0
    code, out, _ = run(capsys, "s5", "check", "--smax", "0", "--lmin", "-8",
                       "--lmax", "8", "--rmax", "1")
    assert code == EXIT_OK


def test_empty_window_is_a_validation_error(capsys):
    for argv in (("s5", "build"), ("rep", "build", "--n", "3", "--ell", "1"),
                 ("crystal", "gen", "--n", "3", "--ell", "1")):
        code, out, err = run(capsys, *argv, "--lmin", "5", "--lmax", "4")
        assert code == EXIT_VALIDATION == 3, argv
        assert out == "" and "empty window" in err, argv


def test_unity_thin_prints_dimension(capsys):
    code, out, _ = run(capsys, "unity", "thin", "--n", "3", "--ell", "1",
                       "--L", "1", "--float-check")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["cyclic_generation"] is True
    assert abs(data["eps_float"][1] - 1.0) < 1e-9  # eps = i


def test_unity_thin_without_ell_is_a_validation_error(capsys):
    code, out, err = run(capsys, "unity", "thin", "--n", "3", "--L", "1")
    assert code == EXIT_VALIDATION == 3
    assert out == "" and "--ell is required" in err


def test_rep_check_unknown_relation_is_a_validation_error(capsys):
    code, out, err = run(capsys, "rep", "check", "--n", "3", "--ell", "1",
                         "--relations", "foo")
    assert code == EXIT_VALIDATION == 3
    assert out == "" and "unknown relation id 'foo'" in err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.conf"
    code, out, err = run(capsys, "--config", str(missing), "crystal", "gen",
                         "--n", "3", "--ell", "1")
    assert code == EXIT_USAGE == 2
    assert out == "" and len(err.splitlines()) == 1 and str(missing) in err


def test_construction_error_exit(monkeypatch, capsys):
    # ConstructionError subclasses ValueError; it must not exit as validation
    def refuse(*args, **kwargs):
        raise ConstructionError("row {0: 1, 2: -1}: a double pole at q^1")
    monkeypatch.setattr(cli, "build_thin", refuse)
    code, _, err = run(capsys, "rep", "build", "--n", "3", "--ell", "1")
    assert code == EXIT_UNSUPPORTED == 6
    assert "unsupported configuration" in err


def test_specialization_error_exit(monkeypatch, capsys):
    # SpecializationError subclasses ValueError; it must not exit as validation
    def vanish(*args, **kwargs):
        raise SpecializationError("denominator vanishes at eps")
    monkeypatch.setattr(cli, "specialize_thin", vanish)
    code, _, err = run(capsys, "unity", "thin", "--n", "3", "--ell", "1",
                       "--L", "1")
    assert code == EXIT_SPECIALIZATION == 7
    assert "specialization" in err


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 3\nell = 1\nlmin = -8\nlmax = 12\n")
    code, out, _ = run(capsys, "--config", str(conf), "crystal", "gen",
                       "--ell", "1")
    assert code == EXIT_OK
    assert "window=(-8, 12)" in out
    # flags win over the config file
    code, out, _ = run(capsys, "--config", str(conf), "crystal", "gen",
                       "--ell", "1", "--lmin", "-4", "--lmax", "8")
    assert "window=(-4, 8)" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "crystal", "gen", "--n", "3", "--ell", "1",
                     "--lmin", "-4", "--lmax", "8", "--format", "dot",
                     "--out", str(target))
    assert code == EXIT_OK
    assert target.read_text().startswith("digraph")

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torcrys import cli
from torcrys.cli import (EXIT_CHECK_FAILED, EXIT_NOT_CLOSED, EXIT_OK,
                         EXIT_SPECIALIZATION, EXIT_UNSUPPORTED, EXIT_USAGE,
                         EXIT_VALIDATION, main)
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


def test_unity_s5_refuses_any_rank_but_3(tmp_path, capsys):
    # the pasted module exists for n = 3 only: another n, from a flag or
    # from the config file, must not print the n = 3 result
    conf = tmp_path / "run.conf"
    conf.write_text("n = 5\nL = 1\n")
    for argv in (("unity", "s5", "--L", "1", "--n", "5"),
                 ("unity", "s5", "--L", "1", "--n", "4"),
                 ("--config", str(conf), "unity", "s5")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION == 3, argv
        assert out == "" and "n = 3 only" in err, argv
    _, plain, _ = run(capsys, "unity", "s5", "--L", "1")
    code, out, _ = run(capsys, "unity", "s5", "--L", "1", "--n", "3")
    assert code == EXIT_OK and out == plain


def test_unity_s5_refuses_ell(tmp_path, capsys):
    # --ell selects a thin module; the pasted module has none, so an
    # --ell from a flag or from the config file must not print its result
    conf = tmp_path / "run.conf"
    conf.write_text("ell = 2\nL = 1\n")
    for argv in (("unity", "s5", "--L", "1", "--ell", "2"),
                 ("unity", "s5", "--L", "1", "--ell", "1"),
                 ("--config", str(conf), "unity", "s5")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION == 3, argv
        assert out == "" and "--ell belongs to the thin family" in err, argv


def test_rep_check_unknown_relation_is_a_validation_error(capsys):
    code, out, err = run(capsys, "rep", "check", "--n", "3", "--ell", "1",
                         "--relations", "foo")
    assert code == EXIT_VALIDATION == 3
    assert out == "" and "unknown relation id 'foo'" in err


@pytest.mark.parametrize("argv", [
    ("rep", "check", "--n", "3", "--ell", "1", "--rmax", "-1"),
    ("s5", "check", "--smax", "1", "--rmax", "-1")])
def test_negative_rmax_is_a_validation_error(argv, capsys):
    # a negative range would check no x relation and report success
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION == 3
    assert out == "" and "rmax >= 0" in err


@pytest.mark.parametrize("argv, flag", [
    (("rep", "qchar", "--n", "3", "--ell", "1", "--rmax", "-1"), "--rmax"),
    (("rep", "build", "--n", "3", "--ell", "1", "--relations", "foo"),
     "--relations"),
    (("rep", "check", "--n", "3", "--ell", "1", "--rmax", "0", "--periods",
      "-1"), "--periods"),
    (("s5", "build", "--smax", "0", "--rmax", "-1"), "--rmax")])
def test_flag_the_action_never_reads_is_a_validation_error(argv, flag,
                                                           tmp_path, capsys):
    # a flag the action would drop unread must not report success; the
    # same key in a config file stays ignored, as keys of other
    # subcommands are
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION == 3
    assert out == "" and f"{flag} is not read by {argv[0]} {argv[1]}" in err
    at = argv.index(flag)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{flag[2:]} = {argv[at + 1]}\n")
    code, _, _ = run(capsys, "--config", str(conf), *argv[:at],
                     *argv[at + 2:])
    assert code == EXIT_OK


@pytest.mark.parametrize("argv, conf, msg", [
    (("tableaux", "list", "--n", "3", "--ell", "2", "--jmin", "3",
      "--jmax", "1"), None, "empty range of j"),
    (("tableaux", "list", "--n", "3", "--ell", "2"), "jmin = 2\n",
     "empty range of j"),
    (("rep", "qchar", "--n", "3", "--ell", "1", "--periods", "-1"), None,
     "periods >= 0"),
    (("rep", "qchar", "--n", "3", "--ell", "1"), "periods = -1\n",
     "periods >= 0")])
def test_empty_listing_is_a_validation_error(argv, conf, msg, tmp_path,
                                             capsys):
    # an empty range of tableau columns j or a negative number of
    # periods would print nothing and report success, from a flag or
    # from the config file (where jmin = 2 passes jmax's default ell - 1)
    if conf is not None:
        path = tmp_path / "run.conf"
        path.write_text(conf)
        argv = ("--config", str(path), *argv)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION == 3
    assert out == "" and msg in err


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


@pytest.mark.parametrize("target", ["dir", "dir/absent/crystal.txt"])
def test_unwritable_output_file_is_a_usage_error(target, tmp_path, capsys):
    # a directory, or a path under a missing directory, exits 2 naming it
    out_path = tmp_path / target
    (tmp_path / "dir").mkdir()
    code, out, err = run(capsys, "crystal", "gen", "--n", "3", "--ell", "1",
                         "--out", str(out_path))
    assert code == EXIT_USAGE == 2
    assert out == "" and len(err.splitlines()) == 1 and str(out_path) in err


def test_output_file_is_checked_before_the_work(monkeypatch, tmp_path,
                                                capsys):
    # an unwritable --out exits 2 before any module is built; a command
    # that exits 3 leaves no file, and a failed check (exit 1) still
    # writes its JSON
    def never(*args, **kwargs):
        raise AssertionError("the module was built")
    monkeypatch.setattr(cli, "build_doubled", never)
    out_path = tmp_path / "absent" / "x.json"
    code, out, err = run(capsys, "s5", "check", "--smax", "2", "--rmax", "2",
                         "--out", str(out_path))
    assert code == EXIT_USAGE == 2
    assert out == "" and str(out_path) in err
    target = tmp_path / "F"
    code, _, _ = run(capsys, "rep", "check", "--n", "3", "--ell", "1",
                     "--relations", "foo", "--out", str(target))
    assert code == EXIT_VALIDATION and not target.exists()
    monkeypatch.setattr(cli, "fr_consistency_report",
                        lambda *args, **kwargs: [("m", 1, 1)])
    code, _, _ = run(capsys, "rep", "check", "--n", "3", "--ell", "1",
                     "--rmax", "0", "--out", str(target))
    assert code == EXIT_CHECK_FAILED
    assert json.loads(target.read_text())["fr_discrepancies"] == ["m:1:1"]


def test_ell_and_L_from_the_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 3\nell = 1\nlmin = -8\nlmax = 12\nL = 1\n")
    code, out, _ = run(capsys, "--config", str(conf), "crystal", "gen")
    assert code == EXIT_OK and "window=(-8, 12)" in out
    code, out, _ = run(capsys, "--config", str(conf), "unity", "thin")
    assert code == EXIT_OK and json.loads(out)["dimension"] == 4


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 3\nel = 1\n")
    code, out, err = run(capsys, "--config", str(conf), "crystal", "gen")
    assert code == EXIT_USAGE == 2
    assert out == "" and len(err.splitlines()) == 1 and "'el'" in err
    # an option of another subcommand is known: unity takes no window
    conf.write_text("n = 3\nell = 1\nL = 1\nlmin = -8\n")
    code, _, _ = run(capsys, "--config", str(conf), "unity", "thin")
    assert code == EXIT_OK


def test_format_and_float_check_from_the_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 3\nell = 1\nlmin = -8\nlmax = 12\nformat = dot\n"
                    "L = 1\nfloat-check = true\n")
    code, out, _ = run(capsys, "--config", str(conf), "crystal", "gen")
    assert code == EXIT_OK and out.startswith("digraph")
    # the flag wins, also at its default value
    code, out, _ = run(capsys, "--config", str(conf), "crystal", "gen",
                       "--format", "text")
    assert code == EXIT_OK and out.startswith("# crystal")
    code, out, _ = run(capsys, "--config", str(conf), "unity", "thin")
    assert code == EXIT_OK and json.loads(out)["eps_float"] == [0.0, 1.0]
    conf.write_text("n = 3\nell = 1\nL = 1\nfloat_check = false\n")
    code, out, _ = run(capsys, "--config", str(conf), "unity", "thin")
    assert code == EXIT_OK and "eps_float" not in json.loads(out)


@pytest.mark.parametrize("line", ["float_check = yes", "format = xml",
                                  "n = three"])
def test_bad_config_value_is_a_validation_error(line, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"n = 3\nell = 1\nL = 1\n{line}\n")
    command = ("unity", "thin") if "float" in line else ("crystal", "gen")
    code, out, err = run(capsys, "--config", str(conf), *command)
    assert code == EXIT_VALIDATION == 3
    assert out == "" and line.split()[0] in err


@pytest.mark.parametrize("argv", [("crystal", "gen", "--n", "3"),
                                  ("tableaux", "list", "--n", "3"),
                                  ("closed", "--n", "3"),
                                  ("unity", "thin", "--n", "3", "--ell", "1")])
def test_missing_ell_or_L_is_a_validation_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION == 3
    assert out == "" and "is required" in err


def test_closed_with_one_window_flag(capsys):
    # the other bound keeps closed_report's default, +-3(n+1)
    code, out, _ = run(capsys, "closed", "--n", "3", "--ell", "1",
                       "--lmin", "-10")
    assert code == EXIT_OK and "window=(-10, 12)" in out
    code, out, _ = run(capsys, "closed", "--n", "3", "--ell", "1",
                       "--lmax", "10")
    assert code == EXIT_OK and "window=(-12, 10)" in out


def test_tableaux_takes_no_window(capsys):
    code, out, _ = run(capsys, "tableaux", "list", "--n", "3", "--ell", "2",
                       "--lmin", "0")
    assert code == EXIT_USAGE == 2 and out == ""


@pytest.mark.parametrize("argv", [("crystal", "gen", "--n", "3", "--ell", "1"),
                                  ("rep", "check", "--n", "3", "--ell", "1",
                                   "--rmax", "1")])
def test_stdout_closed_by_the_reader_keeps_the_exit_code(argv):
    # a reader that left before the write: no traceback, the command's
    # own exit code
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "torcrys.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""  # no traceback, no "Exception ignored"


# stdout SHA-256 and exit code of commands whose payloads are a contract
PINNED_STDOUT = {
    "rep check --n 3 --ell 1 --rmax 2": (
        EXIT_OK,
        "cb9616892af8ebed7c07b414b30f6ca3bd62a89c00852dd7fbfed44d6ae24b85"),
    "s5 check --smax 1 --rmax 1": (
        EXIT_OK,
        "2ed267ebdfe931c33f54cbe6f41e67e0fc937c2e655abcef603094fc43776a85"),
    "unity s5 --L 1 --float-check": (
        EXIT_OK,
        "482afe19f7add11fefd8c65792d931eadf63a19b5bd378cc1c30e534e67db40d"),
    "unity thin --n 3 --ell 1 --L 2 --float-check": (
        EXIT_OK,
        "9af2e395dbbcfc27f6ee18c2a51050603a298f608a8e8645c58153b2ae13ebeb"),
    "closed --n 5 --ell 2": (
        EXIT_NOT_CLOSED,
        "1bb3a8a91a6f812a72c092cba26e2f2767aaae06238d2c7d148bdeae674c5486"),
    # a witness in every one of the eight directions
    "closed --n 7 --ell 3": (
        EXIT_NOT_CLOSED,
        "e7e4eb6328b8e9d55a7ae17eab6305ca30561c264e0ce9d8cb637f87c7d10c1b"),
    "closed --n 7 --ell 4": (
        EXIT_OK,
        "300f3869e684f63d022d8e06defc386d740159682baa7cf31a61be35a083a5d7"),
    # node order, weights, edges and interior of generate
    "crystal gen --n 3 --ell 2 --format json": (
        EXIT_OK,
        "c26aea81ca08cd2889656b62d85b125118f17db37998b6055c5405ec031a86a2"),
    "crystal gen --n 5 --ell 3": (
        EXIT_OK,
        "c2678ec2d67b817e8fc89c4e73ea2893dc2952270b09c00cf88fcbdb4f618ea8"),
}


@pytest.mark.parametrize("argv", PINNED_STDOUT)
def test_stdout_pinned_byte_for_byte(argv, capsys):
    # a change to any of these payloads changes the command's contract
    # and updates its digest openly
    code, digest = PINNED_STDOUT[argv]
    got, out, _ = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest

import json
from importlib import resources

import pytest

from cosetgeom.cli import (EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_census_all(capsys):
    code, out = run(capsys, "census")
    assert code == EXIT_OK
    assert len(json.loads(out)) == 7


def test_census_unknown_id(capsys):
    assert main(["census", "k7"]) == EXIT_USAGE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["subgroups"])         # missing id and --max-index
    assert exc.value.code == EXIT_USAGE


def test_subgroups_k4(capsys):
    code, out = run(capsys, "subgroups", "k4", "--max-index", "4")
    assert code == EXIT_OK
    records = json.loads(out)
    assert sum(1 for r in records if r["index"] == 4) == 7
    rec = records[-1]
    assert {"index", "generators", "order", "fingerprint",
            "certificate_words"} <= set(rec)


def test_subgroups_budget_exit(capsys):
    code, _ = run(capsys, "subgroups", "k1", "--max-index", "10",
                  "--node-budget", "20")
    assert code == EXIT_BUDGET


def test_analyze_k4_index9(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "analyze", "k4", "--index", "9", "--which", "1",
                  "--json", str(out_path))
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["order"] == 144
    assert any(c["recognized_as"] == "Hesse configuration"
               for c in report["classes"])


def test_analyze_class_restriction(capsys):
    code, out = run(capsys, "analyze", "k19", "--index", "9", "--which", "3",
                    "--class", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["classes"]) == 1


def test_analyze_missing_subgroup(capsys):
    code = main(["analyze", "k4", "--index", "9", "--which", "99"])
    assert code == 1


def test_analyze_with_certificate(capsys, tmp_path):
    code, out = run(capsys, "discover", "k4", "--index", "4",
                    "--out", str(tmp_path))
    assert code == EXIT_OK
    paths = out.split()
    assert len(paths) == 7
    code, out = run(capsys, "analyze", "k4", "--index", "4",
                    "--certificate", paths[0])
    assert code == EXIT_OK
    assert json.loads(out)["index"] == 4


def test_analyze_dot_export(capsys):
    code, out = run(capsys, "analyze", "k19", "--index", "9", "--which", "3",
                    "--export", "dot")
    assert code == EXIT_OK
    assert "graph contextuality {" in out
    assert "graph dessin {" in out


def test_bundled_certificates_replay():
    from cosetgeom.cli import bundled_certificate
    from cosetgeom.toddcox import todd_coxeter
    assert todd_coxeter(bundled_certificate("k1", 21)).n == 21
    assert todd_coxeter(bundled_certificate("k5", 45)).n == 45


def test_analyze_deterministic(capsys):
    _, a = run(capsys, "analyze", "k19", "--index", "9", "--which", "3")
    _, b = run(capsys, "analyze", "k19", "--index", "9", "--which", "3")
    assert a == b


K5_CERT = str(resources.files("cosetgeom").joinpath(
    "data", "certificates", "k5", "45-1.json"))


def usage_error(capsys, *argv):
    """Exit code and stderr of a run that must fail with one line."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


def test_analyze_class_zero_is_usage_error(capsys):
    assert usage_error(capsys, "analyze", "k5", "--index", "45",
                       "--certificate", K5_CERT, "--class", "0") == EXIT_USAGE


def test_analyze_class_out_of_range_is_usage_error(capsys):
    assert usage_error(capsys, "analyze", "k5", "--index", "45",
                       "--certificate", K5_CERT, "--class", "4") == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("subgroups", "k4", "--max-index", "0"),
    ("analyze", "k4", "--index", "0"),
    ("discover", "k4", "--index", "0"),
])
def test_index_zero_is_usage_error(capsys, argv):
    assert usage_error(capsys, *argv) == EXIT_USAGE


@pytest.mark.parametrize("text", [
    '{"id": "k4", "index": 4}',                 # no subgroup_words
    "not json",
    '{"subgroup_words": ["x*"]}',               # unparsable word
])
def test_bad_certificate_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert usage_error(capsys, "analyze", "k4", "--index", "4",
                       "--certificate", str(path)) == EXIT_USAGE


def test_dead_flags_removed():
    from cosetgeom.cli import build_parser
    for argv in (["analyze", "k4", "--index", "4", "--seed", "1"],
                 ["subgroups", "k4", "--max-index", "4",
                  "--max-cosets", "10"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == EXIT_USAGE

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from conftest import group_of, order_of, record, relabel
from cosetgeom import cli, dessins, low_index_subgroups, perms, todd_coxeter
from cosetgeom.census import (CENSUS_IDS, KnownResult, census_entry,
                              list_census)
from cosetgeom.cli import (EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK,
                           EXIT_USAGE, main)
from cosetgeom.contextuality import CosetLabeling, labeling_from_table
from cosetgeom.contextuality import to_dot as contextuality_dot
from cosetgeom.dessins import ModularData, Signature
from cosetgeom.geometry import (GraphStats, PolygonCheck, geometry_from_class,
                                pair_classes)
from cosetgeom.perms import parse_cycles
from cosetgeom.toddcox import CosetTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fast_claims():
    """The claim of each census record reproduce fast checks, those that
    name no distinguished subgroup, in census order."""
    return ["%s@%d" % (e.id, r.index) for e in list_census()
            for r in e.known_results if not r.subgroup]


def test_census_all(capsys):
    code, out = run(capsys, "census")
    assert code == EXIT_OK
    assert [e["id"] for e in json.loads(out)] == list(CENSUS_IDS)


def _tuples(value):
    """value with every JSON list read back as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def test_census_k4_published_pairs(capsys, tmp_path):
    # the entry, printed and written to --json alike; every field its
    # records set reads back as the record, the published pairs among them
    code, out = run(capsys, "census", "k4")
    assert code == EXIT_OK
    path = tmp_path / "k4.json"
    assert main(["census", "k4", "--json", str(path)]) == EXIT_OK
    assert path.read_text() == out
    entry = census_entry("k4")
    (printed,) = json.loads(out)
    assert printed == json.loads(json.dumps(entry.to_json_dict()))
    assert [KnownResult(**{k: _tuples(v) for k, v in r.items()})
            for r in printed["known_results"]] == list(entry.known_results)


def test_census_unknown_id(capsys):
    # an empty id names no entry either; read as none, it would print all
    for id in ("k7", ""):
        assert main(["census", id]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: unknown census id %r "
                                       "(known: %s)\n"
                                       % (id, ", ".join(CENSUS_IDS)))


def test_usage_error_exit_code(capsys, no_work):
    # argparse's own errors are one line too, not its usage text
    for argv in (["subgroups"],             # missing id and --max-index
                 ["analyze", "k5"],         # missing --index
                 ["analyze", "k5", "--index", "x"],
                 ["analyze", "k5", "--index", "45", "--mode", "foo"],
                 ["foo"]):                  # no such subcommand
        assert usage_error(capsys, *argv) == EXIT_USAGE, argv
    # argparse reports each of them through error()
    with pytest.raises(cli.UsageError, match="^bad$"):
        cli.build_parser().error("bad")


def test_flags_are_taken_by_full_name_only(capsys, no_work):
    # a prefix of a flag, unique or not, is an unknown flag, on the top
    # parser and on each subcommand's
    for argv in (["analyze", "k5", "--index", "45", "--cert",
                  "src/cosetgeom/data/certificates/k5/45-1.json",
                  "--cla", "1"],
                 ["subgroups", "k1", "--max", "3"]):
        assert usage_error(capsys, *argv) == EXIT_USAGE, argv


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-h"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: cosetgeom analyze")


def test_subgroups_k4(capsys):
    code, out = run(capsys, "subgroups", "k4", "--max-index", "4")
    assert code == EXIT_OK
    records = json.loads(out)
    assert sum(1 for r in records if r["index"] == 4) == 7
    rec = records[-1]
    assert {"index", "generators", "order", "fingerprint",
            "certificate_words"} <= set(rec)


def test_report_json_is_pinned(differential_tables):
    # the output contract: analyze and subgroups JSON, byte for byte, of
    # the 85 differential tables (both modular-data roles occur)
    h = hashlib.sha256()
    for t in differential_tables:
        h.update(json.dumps(cli.analyze_table(t), indent=2).encode())
        h.update(json.dumps(cli._subgroup_record(t), indent=2).encode())
    assert len(differential_tables) == 85
    assert h.hexdigest() == (
        "abf345613f17f2124ea7d03bf3d01f12857d2f3f435b86fe995afa269dc96f83")


def test_perm_report_json_is_pinned(differential_tables):
    # analyze --mode perm JSON, byte for byte, of the 85 differential
    # tables: the other pins read coset-mode verdicts only
    h = hashlib.sha256()
    for t in differential_tables:
        h.update(json.dumps(cli.analyze_table(t, mode="perm"),
                            indent=2).encode())
    assert h.hexdigest() == (
        "7a0c63ed37d0aa9a0db944050a6979e7a28d89ef9a960536ebad6aeeb780def0")


def test_dot_export_is_pinned(differential_tables):
    # analyze --export dot, byte for byte, of the 85 differential tables:
    # the first pair class's contextuality graph (where there is a pair),
    # then the dessin
    h = hashlib.sha256()
    for t in differential_tables:
        group = group_of(t)
        for cls in pair_classes(group)[:1]:
            geom = geometry_from_class(group, cls.pairs)
            h.update(contextuality_dot(labeling_from_table(t),
                                       geom).encode())
        h.update(dessins.to_dot(dessins.dessin_from_table(t)).encode())
    assert h.hexdigest() == (
        "5dc20e5b065050d179af4720a0a5a526d3f736b1683b9dff6952d3f68badd193")


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
    r = record("k4", 9)
    assert report["order"] == r.order
    assert any(c["recognized_as"] == r.geometry for c in report["classes"])


def test_analyze_class_restriction(capsys):
    code, out = run(capsys, "analyze", "k19", "--index", "9", "--which", "3",
                    "--class", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["classes"]) == 1


def test_analyze_missing_subgroup(capsys):
    assert usage_error(capsys, "analyze", "k4", "--index", "9",
                       "--which", "99") == EXIT_USAGE


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


def test_dot_export_without_pair_classes_is_usage_error(capsys):
    # the index-1 table acts on one point: it has no pair class to draw
    code = main(["analyze", "k1", "--index", "1", "--export", "dot"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == "error: no pair class 1 (0 classes)\n", err


def test_bundled_certificates_replay():
    from cosetgeom.cli import bundled_certificate
    assert todd_coxeter(bundled_certificate("k1", 21)).n == 21
    assert todd_coxeter(bundled_certificate("k5", 45)).n == 45


def test_published_pairs_count_up_to_simultaneous_relabeling():
    # k4's four index-4 pairs, relabeled, and with one pair swapped for
    # an intransitive pair or for the action of a class of another order
    entry = census_entry("k4")
    (known,) = [r for r in entry.known_results if r.index == 4]

    def pairs_computed(pairs):
        r = dataclasses.replace(known, pairs=pairs)
        return cli._compare(entry, r)[2]["pairs"]

    sigma = parse_cycles("(1,3,2,4)", 4)
    relabeled = tuple(tuple(str(relabel(parse_cycles(c, 4), sigma))
                            for c in pair) for pair in known.pairs)
    assert relabeled != known.pairs
    assert pairs_computed(relabeled) == len(known.pairs)
    rest = known.pairs[1:]
    assert pairs_computed((("(1,2)", "(3,4)"),) + rest) == len(rest)
    t = next(t for t in low_index_subgroups(entry.presentation, 4)
             if t.n == 4 and order_of(t) == 4)
    assert pairs_computed((tuple(map(str, t.perm_rep())),) + rest) \
        == len(rest)


def test_every_field_a_record_sets_is_checked():
    # each field a record without a distinguished subgroup sets, made
    # wrong in turn, fails its check; fields it leaves unset stay unset,
    # since a raw_count on k5@45 would send it to the index-45 search
    wrong_value = {
        "count": lambda v: v + 1,
        "order": lambda v: 2 * v,
        "raw_count": lambda v: v + 1,
        # a name whose point count is not the record's index
        "geometry": lambda v: ("Hesse configuration" if v == "Fano plane"
                               else "Fano plane"),
        "pairs": lambda v: v[:1] * 2 + v[2:],       # one class named twice
        "passport": lambda v: "[%s]" % ", ".join(v[1:-1].split(", ")[::-1]),
        "signature": lambda v: (v[0] + 1,) + v[1:],
        "modular_data": lambda v: (v[0] + 1,) + v[1:],
    }
    checked = set()
    for entry in list_census():
        for r in entry.known_results:
            if r.subgroup:
                continue
            for f in dataclasses.fields(r):
                value = getattr(r, f.name)
                if f.name == "index" or value == f.default:
                    continue
                wrong = dataclasses.replace(
                    r, **{f.name: wrong_value[f.name](value)})
                _, expected, computed = cli._compare(entry, wrong)
                assert computed != expected, (entry.id, r.index, f.name)
                checked.add(f.name)
    assert checked == wrong_value.keys()


def test_analyze_deterministic(capsys):
    _, a = run(capsys, "analyze", "k19", "--index", "9", "--which", "3")
    _, b = run(capsys, "analyze", "k19", "--index", "9", "--which", "3")
    assert a == b


K5_CERT = str(resources.files("cosetgeom").joinpath(
    "data", "certificates", "k5", "45-1.json"))


def usage_error(capsys, *argv):
    """Exit code of a run that must fail with one line on stderr and
    nothing on stdout."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == "", out
    return code


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a search or a coset enumeration starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before a usage error")
    monkeypatch.setattr(cli, "low_index_subgroups", refuse)
    monkeypatch.setattr(cli, "todd_coxeter", refuse)


def test_analyze_class_builds_one_geometry(capsys, monkeypatch):
    _, full = run(capsys, "analyze", "k5", "--index", "45",
                  "--certificate", K5_CERT)
    calls = []
    build = cli.geometry_from_class

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(cli, "geometry_from_class", counted)
    code, out = run(capsys, "analyze", "k5", "--index", "45",
                    "--certificate", K5_CERT, "--class", "2")
    assert code == EXIT_OK and len(calls) == 1
    full = json.loads(full)
    full["classes"] = full["classes"][1:2]
    assert json.loads(out) == full


def test_each_table_is_read_once(capsys, monkeypatch):
    # a command reads a table's action once, through its dessin: the DOT
    # export of one class, and reproduce over its 62 tables (k1@21's 10
    # among them, from the search its raw_count names)
    read = []                   # the tables stay alive, so ids stay distinct
    perm_rep = CosetTable.perm_rep

    def recorded(table):
        read.append(table)
        return perm_rep(table)
    monkeypatch.setattr(CosetTable, "perm_rep", recorded)
    for argv, tables in ((["analyze", "k1", "--index", "10", "--which", "2",
                           "--export", "dot"], 1),
                         (["reproduce", "fast"], 62)):
        read.clear()
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert len({id(t) for t in read}) == len(read) == tables


def test_analyze_table_labels_the_cosets_once(monkeypatch, k19_grids):
    # k19@9 #3 has two pair classes; one labeling of its cosets serves both
    calls = []
    actions = CosetLabeling.actions.func

    def counted(labeling):
        calls.append(labeling)
        return actions(labeling)
    monkeypatch.setattr(CosetLabeling.actions, "func", counted)
    report = cli.analyze_table(k19_grids)
    assert len(report["classes"]) == 2 and len(calls) == 1


def test_dot_export_refuses_a_json_path(capsys, no_work, tmp_path):
    # the DOT goes to stdout; a --json path would be written to by nothing
    path = tmp_path / "out.json"
    assert usage_error(capsys, "analyze", "k19", "--index", "9", "--which",
                       "3", "--export", "dot", "--json", str(path)) \
        == EXIT_USAGE
    assert not path.exists()


K1_CERT = str(resources.files("cosetgeom").joinpath(
    "data", "certificates", "k1", "21-1.json"))


@pytest.mark.parametrize("argv", [
    ("--index", "21", "--certificate", K1_CERT, "--node-budget", "0"),
    ("--index", "21", "--certificate", K1_CERT, "--which", "5"),
    ("--index", "21", "--certificate", K1_CERT, "--which", "1"),
    ("--index", "7", "--max-cosets", "0"),
    ("--index", "7", "--max-cosets", str(cli.MAX_COSETS)),
], ids=["certificate-node-budget", "certificate-which",
        "certificate-which-1", "max-cosets-search",
        "max-cosets-search-default"])
def test_analyze_refuses_a_flag_its_path_never_reads(capsys, no_work, argv):
    # a certificate is replayed, never searched for, and a search runs no
    # enumeration: the flag would be read by nothing, even at the value
    # the path that reads it takes by default
    assert usage_error(capsys, "analyze", "k1", *argv) == EXIT_USAGE


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
    ("analyze", "k4", "--index", "9", "--which", "0"),
])
def test_index_zero_is_usage_error(capsys, no_work, argv):
    assert usage_error(capsys, *argv) == EXIT_USAGE


def test_every_int_flag_has_a_minimum():
    # every int and every path option has the row of its dest, which names
    # it, gives an int its least value and a path none, and reads on one
    # of analyze's paths or on all; no row names an option that is gone
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    (export,) = [a for a in subparsers.choices["analyze"]._actions
                 if a.dest == "export"]
    dests = set()
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            is_path = action.metavar in ("PATH", "DIR")
            if action.type is int or is_path:
                assert action.dest in cli.FLAG_RULES, (name, action.dest)
                flag, least, path = cli.FLAG_RULES[action.dest]
                assert flag in action.option_strings, (name, flag)
                assert (least is None) == is_path, (name, flag)
                assert path in (None, "search", "certificate",
                                *export.choices), (name, flag)
                dests.add(action.dest)
    assert dests == set(cli.FLAG_RULES)


@pytest.mark.parametrize("text", [
    '{"id": "k4", "index": 4}',                 # no subgroup_words
    "not json",
    '{"subgroup_words": ["x*"]}',               # unparsable word
    '{"id": "k4", "subgroup_words": "xy"}',     # a string, not a list
    '{"subgroup_words": {"x": 1, "y": 2}}',     # an object, not a list
    '{"subgroup_words": ["x^1000000000"]}',     # refused before it is built
    '{"subgroup_words": ["%sx%s"]}' % ("(" * 5000, ")" * 5000),  # too deep
    '{"subgroup_words": ["x*y)"]}',             # trailing input
    '{"subgroup_words": ["x^"]}',               # a bare ^
])
def test_bad_certificate_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert usage_error(capsys, "analyze", "k4", "--index", "4",
                       "--certificate", str(path)) == EXIT_USAGE


def test_deeply_nested_certificate_is_usage_error(capsys, tmp_path, no_work):
    # json.load recurses once per nesting level and gives up with a
    # RecursionError long before 100 000 levels
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["analyze", "k1", "--index", "2",
                 "--certificate", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: bad certificate %s: " % path), err


def test_one_passport_per_report(monkeypatch, k1_to_10):
    # the face permutation is the costly part of a passport; signature
    # and modular data are read off the one passport
    calls = []
    face = dessins.Dessin.face_permutation

    def counted(self):
        calls.append(self)
        return face(self)
    monkeypatch.setattr(dessins.Dessin, "face_permutation", counted)
    for t in k1_to_10:
        report = dessins.dessin_from_table(t).to_json_dict()
        assert "modular_data" in report
    assert len(calls) == len(k1_to_10)


def test_dessin_report_builds_no_group(monkeypatch, k1_to_10):
    # a dessin's connectivity is the orbit of one point, not a group
    calls = []
    init = perms.PermGroup.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(perms.PermGroup, "__init__", counted)
    for t in k1_to_10:
        dessins.dessin_from_table(t).to_json_dict()
    assert calls == []


def test_report_blocks_are_their_dataclasses(k1_to_10):
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]
    for t in k1_to_10:
        report = cli.analyze_table(t)
        dessin = report["dessin"]
        assert list(dessin["signature"]) == names(Signature)
        assert list(dessin["modular_data"]) == names(ModularData)
        for cls in report["classes"]:
            assert list(cls["stats"]) == names(GraphStats)
            assert list(cls["polygon"]) == names(PolygonCheck)


def test_certificate_for_another_id_is_usage_error(capsys, tmp_path):
    k1_cert = resources.files("cosetgeom").joinpath(
        "data", "certificates", "k1", "21-1.json").read_text()
    path = tmp_path / "21-1.json"
    path.write_text(k1_cert)
    assert usage_error(capsys, "analyze", "k4", "--index", "21",
                       "--certificate", str(path)) == EXIT_USAGE


def test_huge_max_index_stays_within_node_budget(capsys):
    code = main(["subgroups", "k1", "--max-index", "1000000",
                 "--node-budget", "50"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET and err.count("\n") == 1, err


def test_certificate_of_another_index_fails_the_check(capsys):
    code = main(["analyze", "k5", "--index", "44", "--certificate", K5_CERT])
    err = capsys.readouterr().err
    assert code == EXIT_CHECK_FAILED
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "45" in err and "44" in err


def test_max_cosets_is_a_budget(capsys, monkeypatch):
    code = main(["analyze", "k5", "--index", "45", "--certificate", K5_CERT,
                 "--max-cosets", "10"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET and err.count("\n") == 1, err
    # without --max-cosets, the replay gets the enumerator's budget
    budgets = []
    replay = cli.todd_coxeter

    def recorded(spec, max_cosets):
        budgets.append(max_cosets)
        return replay(spec, max_cosets)
    monkeypatch.setattr(cli, "todd_coxeter", recorded)
    assert main(["analyze", "k5", "--index", "45", "--certificate", K5_CERT,
                 "--class", "1"]) == EXIT_OK
    assert budgets == [cli.MAX_COSETS]


def test_zero_max_cosets_is_exceeded_at_index_1(capsys, tmp_path):
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"subgroup_words": ["x", "y"]}))
    code = main(["analyze", "k1", "--index", "1", "--certificate", str(cert),
                 "--max-cosets", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET and captured.err.count("\n") == 1, captured
    assert captured.out == ""


def test_discover_out_is_an_existing_file(capsys, no_work, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert usage_error(capsys, "discover", "k1", "--index", "3",
                       "--out", str(taken)) == EXIT_USAGE


def test_discover_out_cannot_be_created(capsys, no_work, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert usage_error(capsys, "discover", "k1", "--index", "3",
                       "--out", str(blocker / "certs")) == EXIT_USAGE


def test_discover_default_out_cannot_be_created(capsys, monkeypatch,
                                                no_work, tmp_path):
    # the default is certificates/<id>, here under a file "certificates"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "certificates").write_text("")
    assert usage_error(capsys, "discover", "k1", "--index", "3") \
        == EXIT_USAGE


# one command per subcommand with a --json flag
JSON_ARGV = [
    ("census", "k1"),
    ("subgroups", "k1", "--max-index", "2"),
    ("analyze", "k1", "--index", "1"),
    ("reproduce", "fast"),
]


@pytest.mark.parametrize("argv", JSON_ARGV, ids=lambda argv: argv[0])
def test_unwritable_json_path_is_usage_error(capsys, no_work, tmp_path,
                                             argv):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = str(blocker / "out.json")
    assert usage_error(capsys, *argv, "--json", path) == EXIT_USAGE
    assert not os.path.exists(path)


@pytest.mark.parametrize("argv", JSON_ARGV, ids=lambda argv: argv[0])
def test_json_path_that_is_a_directory_is_usage_error(capsys, no_work,
                                                      tmp_path, argv):
    assert usage_error(capsys, *argv, "--json", str(tmp_path)) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    *((*argv, "--json", "") for argv in JSON_ARGV),
    ("discover", "k1", "--index", "3", "--out", ""),
    ("analyze", "k4", "--index", "4", "--certificate", ""),
    ("analyze", "k5", "--index", "45", "--certificate", ""),
    ("analyze", "k4", "--index", "4", "--certificate", "",
     "--node-budget", "5"),
], ids=[argv[0] for argv in JSON_ARGV]
    + ["discover", "certificate-k4", "certificate-k5",
       "certificate-node-budget"])
def test_empty_output_path_is_usage_error(capsys, monkeypatch, no_work,
                                          tmp_path, argv):
    # an empty path names no file; read as no path, it would print the
    # JSON, write certificates/<id> into the working directory or search
    # (k5's search to index 45 has no bound); an empty certificate is
    # refused with the output paths
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: %s takes a path, not ''\n" % argv[argv.index("") - 1])
    assert list(tmp_path.iterdir()) == []


def test_empty_json_path_is_refused_past_main(capsys, monkeypatch,
                                              tmp_path):
    # _emit and run_reproduce, called directly, read an empty path as a
    # path too: neither prints the JSON, and nothing is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(cli.UsageError):
        cli._emit({"checks": []}, "")
    assert capsys.readouterr().out == ""
    with pytest.raises(cli.UsageError):
        cli.run_reproduce("fast", json_path="")
    assert '"summary"' not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_json_write_is_usage_error(capsys):
    # /dev/full passes the path checks and refuses the write itself
    assert main(["census", "k1", "--json", "/dev/full"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: cannot write JSON to /dev/full: "
                   "No space left on device\n")


def test_failed_certificate_write_is_usage_error(capsys, tmp_path):
    # the out directory passes its check; the first certificate's path,
    # taken by a directory, fails only when it is opened
    (tmp_path / "4-1.json").mkdir()
    assert main(["discover", "k4", "--index", "4",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: cannot write certificates to %s: Is a directory\n"
                   % tmp_path)


# argv up to the budget's value; discover writes into the working directory
BUDGET_ARGV = {
    "subgroups-node-budget": ("subgroups", "k1", "--max-index", "3",
                              "--node-budget"),
    "analyze-node-budget": ("analyze", "k1", "--index", "3",
                            "--node-budget"),
    "discover-node-budget": ("discover", "k1", "--index", "3",
                             "--node-budget"),
    "analyze-max-cosets": ("analyze", "k5", "--index", "45",
                           "--certificate", K5_CERT, "--max-cosets"),
}


@pytest.mark.parametrize("argv", BUDGET_ARGV.values(), ids=list(BUDGET_ARGV))
def test_negative_budget_is_usage_error(capsys, monkeypatch, no_work,
                                        tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert usage_error(capsys, *argv, "-1") == EXIT_USAGE


@pytest.mark.parametrize("argv", BUDGET_ARGV.values(), ids=list(BUDGET_ARGV))
def test_zero_budget_is_exceeded(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "0"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET and err.count("\n") == 1, err


def test_dead_flags_removed(capsys, no_work):
    for argv in (["analyze", "k4", "--index", "4", "--seed", "1"],
                 ["subgroups", "k4", "--max-index", "4",
                  "--max-cosets", "10"]):
        assert usage_error(capsys, *argv) == EXIT_USAGE


def test_reproduce_fast(capsys, tmp_path):
    path = tmp_path / "reproduce.json"
    assert cli.run_reproduce("fast", json_path=str(path)) == EXIT_OK
    report = json.loads(path.read_text())
    checks = report["checks"]
    claims = fast_claims()
    assert [c["claim"] for c in checks] == claims
    assert all(c["pass"] for c in checks)
    assert report["summary"] == {"total": len(claims), "failed": 0}
    # every Claim of every entry, in the JSON and one line each on stdout
    ledger = [{"id": e.id, **vars(c)} for e in list_census() for c in e.claims]
    assert report["claims"] == ledger
    lines = capsys.readouterr().out.splitlines()
    n = len(claims)
    assert [line.split()[:2] for line in lines[:n]] == \
        [["ok", claim] for claim in claims]
    assert lines[n:-1] == ['%-9s %-4s published "%s": %s' % (
        c["status"], c["id"], c["statement"], c["reason"]) for c in ledger]
    assert lines[-1] == "reproduce fast: %d/%d checks passed" % (n, n)


def test_reproduce_fast_json_is_pinned(capsys, tmp_path):
    # every source, expected and computed value of reproduce fast, and
    # its claims, byte for byte; only the timings vary from run to run
    path = tmp_path / "reproduce.json"
    assert cli.run_reproduce("fast", json_path=str(path)) == EXIT_OK
    report = json.loads(path.read_text())
    for check in report["checks"]:
        del check["runtime_s"]
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() \
        == "30f619e74fd004d238a439f1820ff1eacd2385ffbb82cf139ac897f265c2fd2a"


def test_reproduce_replays_only_the_records_subgroup(capsys, tmp_path,
                                                     monkeypatch):
    # an entry with two distinguished subgroups: each record enumerates
    # its own subgroup once, never the other one
    k1 = census_entry("k1")
    orders = {n: record("k1", n).order for n in (7, 10)}
    small = {}
    for t in low_index_subgroups(k1.presentation, 10):
        if orders.get(t.n) == order_of(t):
            small.setdefault(t.n, t)
    entry = dataclasses.replace(
        k1, subgroups=tuple(("s%d" % n, t.subgroup) for n, t in small.items()),
        known_results=tuple(
            KnownResult(index=n, count=1, order=order_of(t),
                        subgroup="s%d" % n) for n, t in small.items()),
        claims=())
    replayed = []

    def counting(spec, **kw):
        replayed.append(spec)
        return todd_coxeter(spec, **kw)
    monkeypatch.setattr(cli, "list_census", lambda: [entry])
    monkeypatch.setattr(cli, "todd_coxeter", counting)
    path = tmp_path / "reproduce.json"
    assert cli.run_reproduce("full", json_path=str(path)) == EXIT_OK
    checks = json.loads(path.read_text())["checks"]
    assert [c["source"] for c in checks] == ["subgroup"] * 2
    assert replayed == [small[7].subgroup, small[10].subgroup]


def test_reproduce_wrong_count_fails(capsys, tmp_path, monkeypatch):
    k5 = census_entry("k5")
    wrong = dataclasses.replace(k5.known_results[0], count=2)
    monkeypatch.setattr(cli, "list_census", lambda: [
        dataclasses.replace(k5, known_results=(wrong,))])
    path = tmp_path / "reproduce.json"
    assert cli.run_reproduce("fast", json_path=str(path)) \
        == EXIT_CHECK_FAILED
    (check,) = json.loads(path.read_text())["checks"]
    assert check["claim"] == "k5@45" and check["pass"] is False


def test_unreadable_bundled_certificate_fails_its_check(capsys, tmp_path,
                                                        monkeypatch):
    bad = tmp_path / "45-1.json"
    bad.write_text("not json")
    shipped = cli._bundled_path
    monkeypatch.setattr(cli, "_bundled_path", lambda id, index: (
        bad if (id, index) == ("k5", 45) else shipped(id, index)))
    path = tmp_path / "reproduce.json"
    assert cli.run_reproduce("fast", json_path=str(path)) \
        == EXIT_CHECK_FAILED
    checks = json.loads(path.read_text())["checks"]
    assert [c["claim"] for c in checks] == fast_claims()
    (failed,) = [c for c in checks if not c["pass"]]
    assert failed["claim"] == "k5@45"
    assert failed["computed"].startswith("error: bad certificate %s: " % bad)


def test_analyze_s12_computes_no_fingerprint(monkeypatch, k1_to_12):
    # k1@12 acts as S12; neither it nor its S10 pair stabilizer is read
    (t,) = [t for t in k1_to_12 if group_of(t).order() == 479001600]

    def refuse(*args):
        raise AssertionError("fingerprint computed")
    monkeypatch.setattr(perms, "fingerprint", refuse)
    report = cli.analyze_table(t)
    assert report["order"] == 479001600 and report["identified_as"] is None
    assert [c["stabilizer_order"] for c in report["classes"]] == [3628800]


def test_cli_imports_no_sympy():
    """sympy is a test-only oracle: the command line never loads it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import cosetgeom.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'sympy'))")
    out = subprocess.run([sys.executable, "-c", probe, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_closed_stdout_exits_141_quietly():
    """A reader that closed stdout, as `| head` does, ends the command
    with 128 + SIGPIPE and nothing on stderr, not a traceback and 1."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "from cosetgeom.cli import main; sys.exit(main(sys.argv[2:]))")
    read, write = os.pipe()
    os.close(read)          # before the child writes anything
    try:
        proc = subprocess.run([sys.executable, "-c", run, src, "subgroups",
                               "k4", "--max-index", "8"],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141

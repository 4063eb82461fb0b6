"""Command-line front end: reports, determinism, caching, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from schur_orbits import cli
from schur_orbits.cli import main
from schur_orbits.covers import tuple_to_json
from schur_orbits.moves import MoveError

from conftest import GROUP_SPECS, get_level


@pytest.fixture()
def files(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHUR_ORBITS_CACHE", str(tmp_path / "cache"))
    paths = {}
    for name in ("s3", "k4", "z2z4", "a4"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(GROUP_SPECS[name]))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_info(files, capsys):
    code, out = run(capsys, ["group-info", "--group", files["s3"]])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 6 and not rep["abelian"]


def test_mgc_transpositions_trivial(files, capsys):
    code, out = run(capsys, ["mgc", "--group", files["s3"],
                             "--classes", "transpositions"])
    assert code == 0
    assert json.loads(out)["MGC"] == []


def test_h2_report(files, capsys):
    code, out = run(capsys, ["h2", "--group", files["k4"]])
    assert code == 0
    assert json.loads(out)["H2"] == [2]


def test_orbits_odd_transposition_count_empty(files, capsys):
    code, out = run(capsys, ["orbits", "--group", files["s3"], "--genus", "0",
                             "--branch", "3 transpositions"])
    assert code == 0
    rep = json.loads(out)
    assert rep["tuples"] == 0 and rep["orbits"] == 0
    assert not rep["hom_branch_type"]["in_N"]


def test_orbits_transposition_level(files, capsys):
    code, out = run(capsys, ["orbits", "--group", files["s3"], "--genus", "0",
                             "--branch", "4 transpositions"])
    assert code == 0
    rep = json.loads(out)
    assert rep["tuples"] == 24 and rep["orbits"] == 1


def test_stable_range_k4_unbranched(files, capsys):
    code, out = run(capsys, ["stable-range", "--group", files["k4"],
                             "--no-branching"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "empirical-match"
    assert rep["stable_count"] == 2


def test_determinism_threads_and_cache(files, capsys):
    argv = ["stable-range", "--group", files["k4"], "--no-branching"]
    _, cold = run(capsys, argv + ["--threads", "1"])
    _, warm = run(capsys, argv + ["--threads", "1"])
    _, many = run(capsys, argv + ["--threads", "4", "--no-cache"])
    _, nocache = run(capsys, argv + ["--threads", "1", "--no-cache"])
    assert cold == warm == many == nocache

    argv = ["orbits", "--group", files["s3"], "--genus", "0",
            "--branch", "4 transpositions"]
    _, cold = run(capsys, argv + ["--threads", "1"])
    _, warm = run(capsys, argv + ["--threads", "3"])
    _, nocache = run(capsys, argv + ["--threads", "2", "--no-cache"])
    assert cold == warm == nocache


def test_cache_population(files, capsys):
    cache = files["tmp"] / "cache"
    run(capsys, ["h2", "--group", files["s3"]])
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    # poisoning the cache entry changes the output: proof the hit is used
    entries[0].write_text(json.dumps({"H2": ["poisoned"]}) + "\n")
    _, out = run(capsys, ["h2", "--group", files["s3"]])
    assert json.loads(out)["H2"] == ["poisoned"]
    _, fresh = run(capsys, ["h2", "--group", files["s3"], "--no-cache"])
    assert json.loads(fresh)["H2"] == []


def test_torsor_check_cli(files, capsys):
    code, out = run(capsys, ["torsor-check", "--group", files["k4"],
                             "--no-branching", "--genus", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["orbits"] == 2


def test_sch_and_dilate_and_stabilize(files, capsys):
    t = json.dumps({"g": 1, "handles": [[1, 2]], "punctures": []})
    code, out = run(capsys, ["sch", "--group", files["k4"], "--tuple", t])
    assert code == 0
    rep = json.loads(out)
    assert rep["H2"] == [2] and rep["coords"] == [1]

    code, out = run(capsys, ["stabilize", "--group", files["s3"], "--tuple",
                             json.dumps({"g": 1, "handles": [[0, 1]],
                                         "punctures": []}),
                             "--classes", "transpositions"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["tuple"]["punctures"]) == 2

    code, out = run(capsys, ["dilate", "--group", files["s3"], "--tuple",
                             json.dumps(rep["tuple"])])
    assert code == 0
    rep2 = json.loads(out)
    assert all(o == 1 for _, o in rep2["tuple"]["punctures"])


def test_diff_cli(files, capsys):
    t = json.dumps({"g": 2, "handles": [[1, 2], [0, 0]], "punctures": []})
    code, out = run(capsys, ["diff", "--group", files["k4"],
                             "--tuple", t, "--tuple2", t, "--classes", "none"])
    assert code == 0
    assert json.loads(out)["coords"] == [0]


def test_domain_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, ["h2", "--group", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"

    t = json.dumps({"g": 0, "handles": [], "punctures": [[0, 1]]})
    code, out = run(capsys, ["sch", "--group", files["s3"], "--tuple", t])
    assert code == 1


def test_budget_exit_code(files, capsys):
    code, out = run(capsys, ["enumerate", "--group", files["s3"],
                             "--genus", "0", "--branch", "6 transpositions",
                             "--budget", "3"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "budget"


def test_closed_level_cap_exit_code(files, capsys):
    # S3 g=11 walks 7^10 handle-orbit label prefixes
    code, out = run(capsys, ["orbits", "--group", files["s3"],
                             "--genus", "11", "--no-cache"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "budget",
        "message": "enumeration budget 2000000 exhausted"}


def test_closed_enumerate_over_budget_exit_code(files, capsys):
    # S3 g=5 walks 7^4 prefixes, but would expand into 20,132,640 tuples
    code, out = run(capsys, ["enumerate", "--group", files["s3"],
                             "--genus", "5", "--no-cache"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "budget",
        "message": "enumeration budget 2000000 exhausted: "
                   "the level has 20132640 tuples"}


def test_exit_code_comes_from_the_error_type(files, capsys, monkeypatch):
    # a domain error that merely mentions a cap is not a budget error
    def fail(*args):
        raise MoveError("move exceeds cap on a budget")

    monkeypatch.setattr(cli, "level_orbits", fail)
    code, out = run(capsys, ["orbits", "--group", files["s3"],
                             "--genus", "1", "--no-cache"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_unexpected_errors_exit_3_with_a_traceback(files, capsys, monkeypatch):
    def fail(*args):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli, "level_orbits", fail)
    code = main(["orbits", "--group", files["s3"], "--genus", "1",
                 "--no-cache"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"] == {
        "kind": "internal", "message": "ValueError: not a domain error"}
    assert "Traceback" in captured.err


@pytest.mark.parametrize("tup", [
    {"handles": [], "punctures": []},
    {"g": 1, "handles": [[1]], "punctures": []},
    {"g": 1, "handles": [[1, 99]], "punctures": []},
    {"g": 0, "handles": [], "punctures": [[-1, 1], [1, 1]]},
    [0, []],
])
def test_malformed_tuple_is_a_domain_error(files, capsys, tup):
    code, out = run(capsys, ["sch", "--group", files["k4"],
                             "--tuple", json.dumps(tup)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


@pytest.mark.parametrize("argv", [
    ["orbits", "--genus", "-1"],
    ["enumerate", "--genus", "-2"],
    ["stable-range", "--genus-seed", "-1"],
])
def test_negative_genus_is_a_domain_error(files, capsys, argv):
    code, out = run(capsys, argv + ["--group", files["s3"], "--no-cache"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_malformed_cayley_table_is_a_domain_error(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps({"cayley_table": [[0, 1], [1, 5]]}))
    code, out = run(capsys, ["h2", "--group", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_torsor_check_a4_three_cycles_cli(files, capsys):
    code, out = run(capsys, ["torsor-check", "--group", files["a4"],
                             "--classes", "1", "--genus", "0",
                             "--branch", "6 1", "--diff-budget", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["orbits"] == rep["m_order"] == 2


def test_diff_with_a_branch_class_outside_c(files, capsys):
    level = get_level("s3", 0, ((1, 1, 4),))
    code, out = run(capsys, ["diff", "--group", files["s3"],
                             "--tuple", json.dumps(tuple_to_json(level[0])),
                             "--tuple2", json.dumps(tuple_to_json(level[1])),
                             "--classes", "none"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_corrupt_cache_entry_is_recomputed(files, capsys):
    cache = files["tmp"] / "cache"
    argv = ["orbits", "--group", files["s3"], "--genus", "0",
            "--branch", "4 transpositions"]
    _, cold = run(capsys, argv)
    (entry,) = cache.glob("*.json")
    entry.write_text(cold[: len(cold) // 2])
    code, out = run(capsys, argv)
    assert code == 0
    assert out == cold
    assert entry.read_text() == cold
    assert sorted(p.name for p in cache.iterdir()) == [entry.name]


def test_cache_entry_follows_umask(files, capsys):
    old = os.umask(0o022)
    try:
        run(capsys, ["group-info", "--group", files["s3"]])
    finally:
        os.umask(old)
    (entry,) = (files["tmp"] / "cache").glob("*.json")
    assert entry.stat().st_mode & 0o777 == 0o644


def test_out_file(files, capsys, tmp_path):
    dest = tmp_path / "report.json"
    code = main(["h2", "--group", files["s3"], "--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text())["H2"] == []


def test_csv_grid(files, capsys, tmp_path):
    dest = tmp_path / "grid.csv"
    code, _ = run(capsys, ["stable-range", "--group", files["k4"],
                           "--no-branching", "--csv", str(dest)])
    assert code == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "level,g,tuples,orbits"
    assert len(lines) >= 4


def test_cache_key_follows_the_package_sources(files, capsys, monkeypatch):
    cache = files["tmp"] / "cache"
    argv = ["h2", "--group", files["s3"]]
    run(capsys, argv)
    (entry,) = cache.glob("*.json")
    entry.write_text(json.dumps({"H2": ["stale"]}) + "\n")
    # unchanged sources: the entry is a hit
    _, out = run(capsys, argv)
    assert json.loads(out)["H2"] == ["stale"]
    # other sources: a miss, recomputed and stored under a new key
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    _, out = run(capsys, argv)
    assert json.loads(out)["H2"] == []
    assert len(list(cache.glob("*.json"))) == 2


@pytest.mark.parametrize("argv", [
    ["stable-range", "--classes", "transpositions", "--max-rounds", "-1"],
    ["enumerate", "--genus", "0", "--branch", "4 transpositions",
     "--limit", "-1"],
    ["orbits", "--genus", "0", "--branch", "4 transpositions",
     "--budget", "-1"],
])
def test_negative_counts_are_domain_errors(files, capsys, argv):
    code, out = run(capsys, argv + ["--group", files["s3"], "--no-cache"])
    assert code == 1
    rep = json.loads(out)
    assert rep["error"]["kind"] == "domain"
    assert "must be nonnegative" in rep["error"]["message"]


def test_cache_write_removes_dead_writers_temp_files(files, capsys):
    cache = files["tmp"] / "cache"
    cache.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)
    dead = cache / f"{'0' * 64}.{child.pid}.tmp"
    live = cache / f"{'1' * 64}.{os.getppid()}.tmp"
    own = cache / f"{'2' * 64}.{os.getpid()}.tmp"
    other = cache / "notes.tmp"
    for p in (dead, live, own, other):
        p.write_text("{")
    code, _ = run(capsys, ["group-info", "--group", files["s3"]])
    assert code == 0
    assert not dead.exists()
    assert live.exists() and own.exists() and other.exists()
    assert len(list(cache.glob("*.json"))) == 1

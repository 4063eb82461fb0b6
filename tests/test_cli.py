"""Command-line front end: reports, determinism, caching, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from schur_orbits import cli, fastorbits
from schur_orbits.branched_schur import DoublingError
from schur_orbits.cli import CliError, main, parse_branch
from schur_orbits.covers import BranchData, TupleError, tuple_to_json
from schur_orbits.groups import DomainError, GroupBuildError
from schur_orbits.homology import HomologyError
from schur_orbits.moves import MoveError
from schur_orbits.stabilization import StabilizationError

from conftest import GROUP_SPECS, get_group, get_level
from enumeration_oracle import oracle_enumerate


@pytest.fixture()
def files(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHUR_ORBITS_CACHE", str(tmp_path / "cache"))
    paths = {}
    for name in ("s3", "k4", "z2z4", "a4", "s4"):
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
    assert rep["verdict"] == "certified-match"
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


K4_TORI = [json.dumps({"g": 1, "handles": [h], "punctures": []})
           for h in ([1, 2], [2, 1])]

# Each command: a small job (its group and options) and, for each of its
# key inputs, another valid value of that option (True: a flag given).
KEY_JOBS = {
    "group-info": ("s3", {}, {}),
    "enumerate": ("s3", {"--genus": "0", "--branch": "2 transpositions"},
                  {"--genus": "1", "--branch": "4 transpositions",
                   "--all": True, "--budget": "1000000", "--limit": "1"}),
    "orbits": ("s3", {"--genus": "0", "--branch": "2 transpositions"},
               {"--genus": "1", "--branch": "4 transpositions",
                "--budget": "1000000"}),
    "h2": ("s3", {}, {}),
    "mgc": ("s3", {"--classes": "transpositions"}, {"--classes": "all"}),
    "h2bgc": ("s3", {"--classes": "transpositions"}, {"--classes": "all"}),
    "sch": ("k4", {"--tuple": K4_TORI[0]}, {"--tuple": K4_TORI[1]}),
    "diff": ("k4", {"--tuple": K4_TORI[0], "--tuple2": K4_TORI[1]},
             {"--tuple": K4_TORI[1], "--tuple2": K4_TORI[0],
              "--classes": "none"}),
    "dilate": ("k4", {"--tuple": K4_TORI[0]}, {"--tuple": K4_TORI[1]}),
    "stabilize": ("k4", {"--tuple": K4_TORI[0]},
                  {"--tuple": K4_TORI[1], "--classes": "1",
                   "--handle": True}),
    "stable-range": ("k4", {"--classes": "1", "--max-rounds": "2"},
                     {"--classes": "2", "--branch": "2 1",
                      "--no-branching": True, "--genus-seed": "2",
                      "--max-rounds": "3", "--budget": "1000000"}),
    "torsor-check": ("k4", {"--genus": "1", "--classes": "all"},
                     {"--classes": "1", "--no-branching": True,
                      "--genus": "2", "--branch": "2 1",
                      "--budget": "1000000"}),
}
# options no cache key reads, with a value for each
NOT_KEYED = {"--threads": "3", "--out": "report.json"}
NOT_KEYED_BY = {"stable-range": {"--csv": "grid.csv"},
                "diff": {"--budget": "5"},
                "torsor-check": {"--diff-budget": "5"}}


def _job_argv(files, command, options):
    group, base, _ = KEY_JOBS[command]
    argv = [command, "--group", files[group]]
    for option, value in {**base, **options}.items():
        argv += [option] if value is True else [option, value]
    return argv


def test_key_inputs_are_the_options_of_each_command():
    common = {"--group", "--out", "--cache-dir", "--no-cache", "--threads"}
    assert set(KEY_JOBS) == set(cli._COMMANDS)
    for command, (keys, _) in cli._COMMANDS.items():
        options = {o for o, (_, _, text) in cli._options(command).items()
                   if o not in common | {"--csv"} and text != cli._IGNORED}
        assert sorted(keys.split()) == sorted(
            o[2:].replace("-", "_") for o in options), command
        assert set(KEY_JOBS[command][2]) == options, command
        assert set(NOT_KEYED_BY.get(command, {})) <= set(
            cli._options(command)) - options


@pytest.mark.parametrize("command", list(KEY_JOBS))
def test_cache_key_reads_every_input_and_nothing_else(files, capsys,
                                                      command):
    cache = files["tmp"] / "cache"
    argv = _job_argv(files, command, {})
    run(capsys, argv)
    (entry,) = cache.glob("*.json")
    # a warm run is served from the entry the cold run wrote
    poisoned = json.dumps({"poisoned": command}, indent=2) + "\n"
    entry.write_text(poisoned)
    assert run(capsys, argv)[1] == poisoned
    # options outside the key are served from the same entry
    unkeyed = {**NOT_KEYED, **NOT_KEYED_BY.get(command, {})}
    for option, value in unkeyed.items():
        if option in ("--out", "--csv"):
            value = str(files["tmp"] / value)
        code, out = run(capsys, argv + [option, value])
        if option == "--out":
            out = Path(value).read_text()
        assert out == poisoned, option
    assert list(cache.glob("*.json")) == [entry]
    # each key input changed alone is a new entry
    for n, (option, value) in enumerate(KEY_JOBS[command][2].items(), 2):
        code, out = run(capsys, _job_argv(files, command, {option: value}))
        assert code in (0, 2) and out != poisoned, option
        assert len(list(cache.glob("*.json"))) == n, option


@pytest.mark.parametrize("command", list(KEY_JOBS))
def test_each_input_is_read_once(files, capsys, monkeypatch, command):
    reads = []
    for name in ("parse_branch", "parse_classes", "_load_tuple"):
        def read(G, text, _name=name, _read=getattr(cli, name)):
            reads.append((_name, text))
            return _read(G, text)
        monkeypatch.setattr(cli, name, read)
    taken = cli._options(command)
    inputs = {"_load_tuple": ("--tuple" in taken) + ("--tuple2" in taken),
              "parse_classes": int("--classes" in taken),
              "parse_branch": int("--branch" in taken)}
    alternatives = KEY_JOBS[command][2]
    for options in [{}] + [{o: v} for o, v in alternatives.items()]:
        argv = _job_argv(files, command, options)
        given = {argv[i + 1] for i, word in enumerate(argv[:-1])
                 if word in ("--tuple", "--tuple2", "--branch")
                 or word == "--classes" and "--no-branching" not in argv}
        for _ in range(2):  # cold, then warm
            reads.clear()
            code, _ = run(capsys, argv)
            assert code in (0, 2)
            calls = Counter(name for name, _ in reads)
            assert all(calls[f] <= n for f, n in inputs.items()), reads
            assert given <= {text for _, text in reads}, reads


def test_no_branching_does_not_read_classes(files, capsys):
    code, out = run(capsys, ["torsor-check", "--group", files["k4"],
                             "--no-branching", "--classes", "garbage",
                             "--genus", "2"])
    assert code == 0 and json.loads(out)["passed"]


# every input malformed: the error is that of the first one the key names
@pytest.mark.parametrize("argv,first", [
    (["diff", "--tuple", "{", "--tuple2", "{", "--classes", "bad"],
     "class selector"),
    (["stabilize", "--classes", "bad", "--tuple", "{"], "tuple"),
    (["stable-range", "--branch", "bad", "--classes", "bad"],
     "class selector"),
    (["torsor-check", "--branch", "bad", "--classes", "bad", "--genus", "1"],
     "class selector"),
])
def test_inputs_are_read_in_key_order(files, capsys, argv, first):
    code, out = run(capsys, argv + ["--group", files["k4"], "--no-cache"])
    assert code == 1 and first in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("classes,code", [(None, 0), ("none", 1)])
def test_diff_without_classes_takes_the_branch_classes(files, capsys,
                                                       classes, code):
    level = get_level("s3", 0, ((1, 1, 4),))
    argv = ["diff", "--group", files["s3"],
            "--tuple", json.dumps(tuple_to_json(level[0])),
            "--tuple2", json.dumps(tuple_to_json(level[1]))]
    got, _ = run(capsys, argv + ["--classes", classes] * bool(classes))
    assert got == code


@pytest.mark.parametrize("command,extra", [
    ("dilate", {"g": True, "handles": [[1, 2]],
                "punctures": [[True, 1], [1, -1]]}),
    ("sch", {"g": True, "handles": [[1, 2]], "punctures": []}),
    ("sch", {"g": 1, "handles": [[1, False]], "punctures": []}),
])
def test_tuple_booleans_are_not_integers(files, capsys, command, extra):
    code, out = run(capsys, [command, "--group", files["k4"],
                             "--tuple", json.dumps(extra)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


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


# sch coordinates of closed genus-2 tuples of (Z/2)^4, the one spec group
# whose H2 has more than two automorphisms: the presented basis is that
# of the reduced Howell form of the Hopf relations, and these pin it
Z2_4_SCH = [
    ([[1, 2], [3, 4]], [0, 0, 1, 1, 0, 0]),
    ([[1, 2], [1, 4]], [1, 0, 0, 0, 0, 1]),
    ([[1, 3], [2, 4]], [1, 1, 0, 0, 1, 0]),
    ([[5, 6], [7, 9]], [0, 0, 0, 1, 1, 1]),
    ([[1, 15], [2, 3]], [0, 1, 0, 0, 0, 1]),
    ([[1, 2], [0, 0]], [0, 0, 0, 1, 0, 0]),
]


def test_sch_coords_of_z2_4_are_pinned(files, capsys):
    path = files["tmp"] / "z2^4.json"
    path.write_text(json.dumps(GROUP_SPECS["z2^4"]))
    for handles, coords in Z2_4_SCH:
        t = json.dumps({"g": 2, "handles": handles, "punctures": []})
        code, out = run(capsys, ["sch", "--group", str(path), "--tuple", t,
                                 "--no-cache"])
        assert code == 0
        rep = json.loads(out)
        assert rep["H2"] == [2] * 6 and rep["coords"] == coords


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


@pytest.mark.parametrize("limit", [None, 0, 3])
@pytest.mark.parametrize("every", [False, True])
@pytest.mark.parametrize("genus,branch", [(0, "4 transpositions"), (2, None)])
def test_enumerate_counts_the_level_and_lists_limit_tuples(
        files, capsys, genus, branch, every, limit):
    # the count is the whole level's; --limit keeps the first tuples
    G = get_group("s3")
    v = parse_branch(G, branch) if branch else BranchData(())
    want = oracle_enumerate(G, genus, v, surjective=not every)
    argv = ["enumerate", "--group", files["s3"], "--genus", str(genus),
            "--no-cache"] + ["--branch", branch] * bool(branch)
    argv += ["--all"] * every + ["--limit", str(limit)] * (limit is not None)
    code, out = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {
        "count": len(want), "tuples": [tuple_to_json(t) for t in want[:limit]]}


def test_exit_code_comes_from_the_error_type(files, capsys, monkeypatch):
    # a domain error that merely mentions a cap is not a budget error
    def fail(*args):
        raise MoveError("move exceeds cap on a budget")

    monkeypatch.setattr(fastorbits, "level_orbits", fail)
    code, out = run(capsys, ["orbits", "--group", files["s3"],
                             "--genus", "1", "--no-cache"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_unexpected_errors_exit_3_with_a_traceback(files, capsys, monkeypatch):
    def fail(*args):
        raise ValueError("not a domain error")

    monkeypatch.setattr(fastorbits, "level_orbits", fail)
    code = main(["orbits", "--group", files["s3"], "--genus", "1",
                 "--no-cache"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"] == {
        "kind": "internal", "message": "ValueError: not a domain error"}
    assert "Traceback" in captured.err


@pytest.mark.parametrize("error,code,kind", [
    *[(e, 1, "domain") for e in (CliError, GroupBuildError, TupleError,
                                 MoveError, HomologyError, StabilizationError,
                                 DoublingError)],
    (ValueError, 3, "internal"),
])
def test_every_domain_error_exits_1(files, capsys, monkeypatch, error, code,
                                    kind):
    assert issubclass(error, DomainError) == (code == 1)

    def fail(G, args):
        raise error("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "h2", (cli._COMMANDS["h2"][0], fail))
    got, out = run(capsys, ["h2", "--group", files["s3"], "--no-cache"])
    assert got == code
    assert json.loads(out)["error"]["kind"] == kind


def test_h2bgc_report(files, capsys):
    d4 = files["tmp"] / "d4.json"
    d4.write_text(json.dumps(GROUP_SPECS["d4"]))
    code, out = run(capsys, ["h2bgc", "--group", str(d4), "--classes", "all"])
    assert code == 0
    rep = json.loads(out)
    assert (rep["H2"], rep["MGC"], rep["N_rank"], rep["H1"],
            rep["pi1_order"]) == ([2], [], 4, [], 1)


# what a command that only reads the group, or a cache hit, must not load
HEAVY_MODULES = {"numpy", "schur_orbits.homology", "schur_orbits.moves",
                 "schur_orbits.fastorbits", "schur_orbits.stabilization",
                 "schur_orbits.branched_schur"}


def _child(args):
    """A fresh Python process run with args and this package on its path."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _imported_modules(argv):
    """The modules a fresh `python -m schur_orbits.cli argv` imports, from
    its -X importtime log."""
    return _import_log(["-m", "schur_orbits.cli", *argv])


def _import_log(args):
    p = _child(["-X", "importtime", *args])
    assert p.returncode == 0, p.stderr
    return {line.rsplit("|", 1)[1].strip() for line in p.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_group_info_and_cache_hits_import_no_numpy(files):
    cache = ["--cache-dir", str(files["tmp"] / "cache")]
    group_info = _imported_modules(["group-info", "--group", files["s4"],
                                    "--no-cache"])
    cold = _imported_modules(["h2", "--group", files["s4"], *cache])
    warm = _imported_modules(["h2", "--group", files["s4"], *cache])
    # the log does list what a command loads: h2 runs homology, which
    # needs no numpy
    assert "schur_orbits.homology" in cold and "numpy" not in cold
    assert "schur_orbits.groups" in group_info
    assert "schur_orbits.intlinalg" in group_info  # its G_ab
    assert not group_info & HEAVY_MODULES
    assert not warm & HEAVY_MODULES
    assert not warm & _ABSENT["h2"]


# a run of each command that computes with the group; a group name in
# the arguments stands for its file
_TORUS = json.dumps({"g": 1, "handles": [[1, 2]], "punctures": []})
_FOOTPRINT_ARGV = {
    "group-info": ["--group", "s4"],
    "orbits": ["--group", "s3", "--genus", "0", "--branch",
               "4 transpositions"],
    "h2": ["--group", "k4"],
    "h2bgc": ["--group", "s3", "--classes", "transpositions"],
    "mgc": ["--group", "s3", "--classes", "transpositions"],
    "sch": ["--group", "k4", "--tuple", _TORUS],
    "diff": ["--group", "k4", "--tuple", _TORUS, "--tuple2", _TORUS],
    "dilate": ["--group", "k4", "--tuple", _TORUS],
    "stabilize": ["--group", "k4", "--tuple", _TORUS, "--classes", "1",
                  "--handle"],
    "stable-range": ["--group", "k4", "--no-branching"],
    "torsor-check": ["--group", "k4", "--no-branching", "--genus", "2"],
}


# what each of those runs must not load either: dataclasses (which
# imports inspect) nowhere; inspect and traceback (cli.main imports it
# for an internal error only) in the commands that never load numpy;
# covers in those that read no tuple
_NO_NUMPY = {"dataclasses", "inspect", "traceback"}
_ABSENT = {
    **dict.fromkeys(["group-info", "h2", "h2bgc", "mgc"],
                    _NO_NUMPY | {"schur_orbits.covers"}),
    **dict.fromkeys(["sch", "diff", "dilate", "stabilize"], _NO_NUMPY),
    **dict.fromkeys(["orbits", "stable-range", "torsor-check"],
                    {"dataclasses"}),
}


@pytest.mark.parametrize("command", sorted(_FOOTPRINT_ARGV))
def test_no_command_loads_openssl(files, command):
    # hashlib maps OpenSSL's libcrypto; the digests come from the
    # built-in sha256 module instead
    argv = [files.get(a, a) for a in _FOOTPRINT_ARGV[command]]
    loaded = _imported_modules([command, *argv, "--no-cache"])
    assert "schur_orbits.groups" in loaded
    assert "_hashlib" not in loaded
    assert not loaded & _ABSENT[command]


@pytest.mark.parametrize("command", ["group-info", "h2", "sch", "orbits"])
def test_commands_load_no_argparse_or_random(files, command):
    # the option table replaced argparse (and with it gettext and
    # locale), and groups checks associativity without sampling; a site
    # hook may import random at start-up, so that is left out
    argv = [files.get(a, a) for a in _FOOTPRINT_ARGV[command]]
    loaded = _imported_modules([command, *argv, "--no-cache"])
    assert "schur_orbits.groups" in loaded
    loaded -= _import_log(["-c", "pass"])
    assert not loaded & {"argparse", "gettext", "locale", "random"}


def test_internal_error_prints_a_traceback_in_a_fresh_process(files):
    # pytest has loaded traceback already, so only a fresh process shows
    # that cli.main imports it when it needs it
    p = _child(["-c", "\n".join([
        "import sys",
        "from schur_orbits import cli, fastorbits",
        "def fail(*args):",
        "    raise ValueError('not a domain error')",
        "fastorbits.level_orbits = fail",
        "sys.exit(cli.main(sys.argv[1:]))",
    ]), "orbits", "--group", files["s3"], "--genus", "1", "--no-cache"])
    assert p.returncode == 3
    assert json.loads(p.stdout)["error"] == {
        "kind": "internal", "message": "ValueError: not a domain error"}
    assert "Traceback" in p.stderr and "in fail" in p.stderr


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="threads are counted in /proc/self/task, and on one CPU "
           "OpenBLAS starts no worker thread")
@pytest.mark.parametrize("imports,blas_threads,threads", [
    ("cli", None, 1),
    # the traced benchmark job's import order
    ("branched_schur, cli, covers, fastorbits", None, 1),
    # a caller's own setting stands
    ("cli", "2", 2),
])
def test_the_cli_loads_openblas_with_one_thread(files, monkeypatch, imports,
                                                blas_threads, threads):
    # no command makes a BLAS call, and numpy's OpenBLAS would otherwise
    # start a busy-waiting worker per extra CPU as it loads
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if blas_threads:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    out = files["tmp"] / "report.json"
    p = _child(["-c", "\n".join([
        "import os, sys",
        f"from schur_orbits import {imports}",
        "code = cli.main(sys.argv[1:])",
        "print(code, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')))",
    ]), "orbits", "--group", files["s3"], "--genus", "0",
        "--branch", "4 transpositions", "--no-cache", "--out", str(out)])
    assert p.stdout.split() == ["0", "True", str(threads)], p.stderr
    assert json.loads(out.read_text())["orbits"] == 1


@pytest.mark.parametrize("command", ["h2", "h2bgc", "mgc", "sch"])
def test_homology_commands_load_no_numpy(files, command):
    # the H2 build is sparse and in Python ints, none of these commands
    # runs the orbit engine, and sch is homology's Lambda with C empty
    argv = [files.get(a, a) for a in _FOOTPRINT_ARGV[command]]
    loaded = _imported_modules([command, *argv, "--no-cache"])
    assert "schur_orbits.homology" in loaded
    assert not loaded & {"numpy", "schur_orbits.fastorbits",
                         "schur_orbits.moves", "schur_orbits.branched_schur",
                         "schur_orbits.stabilization"}


@pytest.mark.parametrize("command,runs", [
    ("diff", "schur_orbits.branched_schur"),
    ("dilate", "schur_orbits.stabilization"),
    ("stabilize", "schur_orbits.stabilization")])
def test_tuple_commands_load_no_numpy(files, command, runs):
    # they read single tuples and never run the orbit engine, which alone
    # loads numpy; moves comes in with their modules, and loads numpy only
    # to run a plan on columns
    argv = [files.get(a, a) for a in _FOOTPRINT_ARGV[command]]
    loaded = _imported_modules([command, *argv, "--no-cache"])
    assert {runs, "schur_orbits.moves"} <= loaded
    assert not loaded & {"numpy", "schur_orbits.fastorbits"}


# (group, level, whether its net branch vector is nonzero)
@pytest.mark.parametrize("level", [
    ("s3", ["--genus", "0", "--branch", "4 transpositions"], True),
    ("s3", ["--genus", "2"], False),
    ("a4", ["--genus", "0", "--branch", "3 1, 3 1 -"], False)])
def test_orbits_loads_neither_homology_nor_stabilization(files, level):
    group, argv, nonzero = level
    loaded = _imported_modules(["orbits", "--group", files[group], *argv,
                                "--no-cache"])
    assert "schur_orbits.fastorbits" in loaded
    assert not loaded & {"schur_orbits.homology", "schur_orbits.stabilization"}
    # hom_branch_type needs G_ab, and so intlinalg, for a nonzero vector only
    assert ("schur_orbits.intlinalg" in loaded) == nonzero


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


@pytest.mark.parametrize("option", ["group", "tuple"])
@pytest.mark.parametrize("case", ["directory", "not-utf-8", "unreadable"])
def test_unreadable_input_file_is_a_domain_error(files, capsys, monkeypatch,
                                                 option, case):
    path = files["tmp"] / "input.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}" if case == "not-utf-8" else b"{}")
    if case == "unreadable":  # a mode bit would not stop root
        read_text = Path.read_text

        def deny(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", deny)
    argv = (["group-info", "--group", str(path)] if option == "group" else
            ["sch", "--group", files["k4"], "--tuple", str(path)])
    code = main(argv + ["--no-cache"])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "domain" and "not readable" in error["message"]
    assert "Traceback" not in captured.err


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


def test_transposition_selector_needs_a_permutation_group(files, capsys):
    # a Cayley table carries no element permutations to find them in
    table = files["tmp"] / "q8.json"
    table.write_text(json.dumps(GROUP_SPECS["q8"]))
    code, out = run(capsys, ["mgc", "--group", str(table),
                             "--classes", "transpositions", "--no-cache"])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "domain" and "permutation-defined" in err["message"]


@pytest.mark.parametrize("spec", [
    {"permutations": [[1.0, 0]]},
    {"permutations": [1]},
    {"cayley_table": [0]},
    {"permutations": [[True, False]]},
    {"cayley_table": [[0, 1.0], [1.0, 0]]},
])
def test_group_entries_that_are_not_integer_arrays_are_domain_errors(
        files, capsys, spec):
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out = run(capsys, ["group-info", "--group", str(bad), "--no-cache"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_a_group_past_the_order_cap_is_a_domain_error(files, capsys):
    # S9, by a 9-cycle and a transposition, is rejected before it is closed
    s9 = files["tmp"] / "s9.json"
    s9.write_text(json.dumps({"permutations": [[*range(1, 9), 0],
                                               [1, 0, *range(2, 9)]]}))
    code, out = run(capsys, ["group-info", "--group", str(s9), "--no-cache"])
    assert code == 1
    err = json.loads(out)["error"]
    assert err == {"kind": "domain", "message":
                   "group order exceeds cap 120: more than 120 elements"}


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


@pytest.mark.parametrize("argv", [
    ["h2"],
    ["orbits", "--genus", "0", "--branch", "4 transpositions"],
    ["stable-range", "--classes", "transpositions",
     "--branch", "2 transpositions", "--max-rounds", "0"],
])
def test_a_cache_that_cannot_be_written_keeps_the_report(files, capsys, argv):
    # a regular file where the cache directory should be: like a cache
    # that cannot be read, it costs only the entry
    blocker = files["tmp"] / "blocker"
    blocker.write_text("")
    argv = argv + ["--group", files["s3"]]
    code, out = run(capsys, argv + ["--no-cache"])
    cache = blocker / "sub"
    got = main(argv + ["--cache-dir", str(cache)])
    written = capsys.readouterr()
    assert (got, written.out) == (code, out)
    (line,) = written.err.splitlines()
    assert str(cache) in line
    assert blocker.read_text() == ""


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


def test_unwritable_out_file_is_a_domain_error_on_stdout(files, capsys):
    dest = files["tmp"] / "missing" / "report.json"
    code = main(["h2", "--group", files["s3"], "--out", str(dest)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")  # no traceback
    error = json.loads(out)["error"]
    assert error["kind"] == "domain" and str(dest) in error["message"]
    assert not dest.parent.exists()


def test_unwritable_csv_file_is_a_domain_error(files, capsys):
    dest = files["tmp"] / "missing" / "grid.csv"
    code = main(["stable-range", "--group", files["k4"], "--no-branching",
                 "--csv", str(dest)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["kind"] == "domain" and str(dest) in error["message"]


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


def test_no_cache_computes_no_cache_key(files, capsys, monkeypatch):
    # with --no-cache nothing reads the key, so the sources are not
    # hashed; the parameters are still parsed, which validates them
    def unused():
        raise AssertionError("cache key computed under --no-cache")

    monkeypatch.setattr(cli, "_source_digest", unused)
    code, out = run(capsys, ["h2", "--group", files["s3"], "--no-cache"])
    assert (code, json.loads(out)) == (0, {"H2": []})
    code, out = run(capsys, ["mgc", "--group", files["s3"], "--classes",
                             "99", "--no-cache"])
    assert code == 1 and "out of range" in json.loads(out)["error"]["message"]
    assert not (files["tmp"] / "cache").exists()


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

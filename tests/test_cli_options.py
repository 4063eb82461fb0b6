"""The command line's option table against the argparse parser it
replaced (tests/argparse_oracle.py): equal namespaces on generated
command lines, and the same usage errors, help and version exits."""

import re

import pytest

from schur_orbits import __version__, cli
from schur_orbits.cli import main

from argparse_oracle import _build_parser

ORACLE = _build_parser()
SUBPARSERS = next(a for a in ORACLE._actions if a.dest == "command").choices


def _options(command):
    """The oracle's options of a command, -h/--help left out."""
    return [a for a in SUBPARSERS[command]._actions if a.dest != "help"]


def _prefix(option, names):
    """The shortest prefix of option that names it alone, or option."""
    for k in range(3, len(option)):
        if [n for n in names if n.startswith(option[:k])] == [option]:
            return option[:k]
    return option


def _forms(action, names):
    """Ways to give one option: in full and by its shortest unique
    prefix, each with its value after it and after '='; negative ints,
    and string values that begin with '-'."""
    (opt,) = action.option_strings
    if action.nargs == 0:
        return [[opt], [_prefix(opt, names)]]
    values = (["3", "-2", "0"] if action.type is int
              else ["a b", "-1", "-1 5 -", "x=y", ""])
    return [form for name in {opt, _prefix(opt, names)} for v in values
            for form in ([name, v], [f"{name}={v}"])]


def _required_words(actions, skip=None):
    return [w for a in actions if a.required and a is not skip
            for w in (a.option_strings[0], "1" if a.type is int else "r.json")]


def _argvs(command):
    actions = _options(command)
    names = list(SUBPARSERS[command]._option_string_actions)
    yield [command, *_required_words(actions)]
    for a in actions:
        base = _required_words(actions, skip=a)
        for form in _forms(a, names):
            yield [command, *base, *form]
            yield [command, *form, *base]
    yield [command, *[w for a in actions for w in _forms(a, names)[0]]]


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_namespaces_equal_the_argparse_ones(command):
    argvs = list(_argvs(command))
    assert len(argvs) > 1
    for argv in argvs:
        assert vars(cli._parse(argv)) == vars(ORACLE.parse_args(argv)), argv


def test_default_budget_is_the_one_constant():
    for command in ("enumerate", "orbits", "stable-range", "torsor-check"):
        argv = [command, *_required_words(_options(command))]
        assert cli._parse(argv).budget == cli.DEFAULT_BUDGET == 2_000_000
    assert cli._parse(["diff", "--group", "g", "--tuple", "t", "--tuple2",
                       "u"]).budget is None


@pytest.mark.parametrize("argv", [
    [],  # no command
    ["frobnicate", "--group", "g"],  # unknown command
    ["--frob", "group-info", "--group", "g"],
    ["orbits", "--group", "g", "--genus", "0", "--frob", "1"],  # unknown
    ["torsor-check", "--group", "g", "--genus", "0", "--no"],  # ambiguous
    ["diff", "--group", "g", "--tup", "t", "--tuple2", "u"],
    ["orbits", "--group", "g", "--genus"],  # missing value
    ["orbits", "--group", "g", "--genus", "--no-cache"],
    ["orbits", "--group", "g", "--genus", "x"],  # not an int
    ["orbits", "--group", "g", "--genus=1.5"],
    ["stable-range", "--group", "g", "--max-rounds", ""],
    ["orbits", "--genus", "0"],  # missing required option
    ["sch", "--group", "g"],
    ["diff", "--group", "g", "--tuple", "t"],
    ["enumerate", "--group", "g", "--branch", "2 1"],
    ["orbits", "--group", "g", "--genus", "0", "stray"],  # positional
    ["group-info", "stray", "--group", "g"],
    ["group-info", "--group", "g", "--no-cache=1"],  # a flag's value
    ["group-info", "--group", "g", "--version"],  # top level only
])
def test_usage_errors_exit_2_with_one_line_and_no_report(capsys, argv):
    with pytest.raises(SystemExit) as oracle:
        ORACLE.parse_args(argv)
    assert oracle.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert re.fullmatch(r"schur-orbits( [a-z0-9-]+)?: error: .+", line)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"]])
def test_top_level_help_lists_the_commands(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out = capsys.readouterr().out
    assert exit_.value.code == 0 and out.startswith("usage: schur-orbits")
    assert all(command in out for command in SUBPARSERS)


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_command_help_lists_its_options(capsys, command):
    # help comes before the check for required options, as in argparse
    for argv in ([command, "-h"], [command, "--threads", "2", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out = capsys.readouterr().out
        assert exit_.value.code == 0
        assert out.startswith(f"usage: schur-orbits {command}")
        listed = set(re.findall(r"^  (--[a-z0-9-]+)", out, re.M))
        assert listed == {a.option_strings[0] for a in _options(command)}


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"{__version__}\n"

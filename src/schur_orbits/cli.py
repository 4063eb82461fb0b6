"""Command-line front end: group files, class selectors, JSON reports,
and a digest-keyed result cache.

Every subcommand emits one JSON report (stdout or --out).  Exit codes
come from exception types: 0 success, 1 a groups.DomainError (malformed
or unreadable input, invalid tuple, a branch class outside C, ...), 2
budget exhaustion (groups.BudgetError) or an inconclusive stable-range
verdict, 3 an internal error (any other exception: its traceback goes
to stderr).  A --out or --csv file that cannot be written is a domain
error; its report goes to stdout.
Reports are byte-identical across runs, --threads values (accepted and
ignored) and cache cold/warm runs.  main reads each input once: the
group, then the --tuple, --tuple2, --classes and --branch text, each
replaced by the value it selects, so a malformed input fails on a warm
cache too.  The cache stores the serialized report keyed by a content
digest of the job: the group table digest, the command, the parsed
values of the key inputs _COMMANDS names for it, and a digest of the
package's source files, which covers the move-set tag in moves.py, so a
report computed by other code is never served.  The key is computed
only when the cache is used.  An entry that does not decode is a miss:
the report is recomputed and the entry rewritten.  A cache that cannot
be written costs only the entry: the report goes out as computed, with
the command's own exit code, and one stderr line names the path.

The command line is one option table, _OPTIONS, that _parse reads in
place of argparse, with the same namespaces, prefixes and usage errors.
Only groups is imported here; each command imports the modules it runs
in its own body, so argument parsing, group-info and a cache hit load
neither numpy nor covers nor the orbit and homology modules, and orbits
loads neither homology nor stabilization.  covers comes in with the
first tuple or branch argument.  numpy comes in only with the orbit
engine, fastorbits (enumerate, orbits, stable-range, torsor-check): h2,
mgc, h2bgc and sch run homology in Python ints, and diff, dilate and
stabilize, which read single tuples, never run the engine, so none of
them loads it.  sch is homology.lifting_invariant with C empty, so it
loads neither branched_schur nor stabilization.  intlinalg
comes in with G_ab (group-info, an orbits level whose net branch vector
is nonzero) or with homology, so a closed orbits level, or one whose
punctures cancel in the net vector, never loads it.  traceback
is imported only for an internal error.  No command loads OpenSSL: the
digests use groups.sha256, CPython's built-in SHA-256.  No command makes
a BLAS call either, so importing cli sets OPENBLAS_NUM_THREADS to 1
unless the caller has set it: numpy's OpenBLAS otherwise starts a
busy-waiting worker per extra CPU as it loads, which on a 2-CPU Xeon VM
took `import numpy` from 98 to 166 ms (median of 21 fresh processes).
The variable is set when cli is imported, not in main, so a process
that imports cli before numpy loads numpy with one thread too.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .groups import (
    DEFAULT_BUDGET,
    BudgetError,
    DomainError,
    abelianization,
    build_group,
    sha256,
)

# Before any command imports numpy, and only as a default: see the
# module docstring.  A library user who never imports cli keeps
# threaded BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__all__ = ["main"]


class CliError(DomainError):
    pass


def _load_group(path):
    try:
        spec = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"group file not found: {path}")
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"group file is not readable: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"group file is not valid JSON: {e}")
    if not isinstance(spec, dict):
        raise CliError("group file must hold a JSON object")
    return build_group(spec)


def _transposition_classes(G):
    if G.perms is None:
        raise CliError("selector needs a permutation-defined group")
    out = set()
    for x, p in enumerate(G.perms):
        moved = sum(1 for i, j in enumerate(p) if i != j)
        if moved == 2:
            out.add(G.class_of[x])
    if not out:
        raise CliError("group has no transpositions")
    return tuple(sorted(out))


def _selected_classes(G, word, what, keyword=True):
    """The classes a selector word names: those of 'transpositions' when
    keyword is true, or the class of an element index 0 < x < |G|."""
    if keyword and word == "transpositions":
        return _transposition_classes(G)
    try:
        x = int(word)
    except ValueError:
        raise CliError(f"bad {what}: {word!r}")
    if not 0 < x < G.order:
        raise CliError(f"element index {x} out of range")
    return (G.class_of[x],)


def parse_classes(G, sel):
    """C selector: 'all', 'none', 'transpositions', or comma-separated
    element indices (closed up to full conjugacy classes)."""
    if sel is None:
        return ()
    sel = sel.strip()
    if sel in ("", "none"):
        return ()
    if sel == "all":
        return tuple(c for c, r in enumerate(G.class_reps) if r != 0)
    parts = sel.split(",")
    return tuple(sorted({
        c for part in parts for c in _selected_classes(
            G, part.strip(), "class selector entry", len(parts) == 1)}))


def parse_branch(G, s):
    """Branch data selector: comma-separated terms 'COUNT WHAT [-]',
    e.g. '4 transpositions' or '2 5' or '1 5 -' (negative framing).
    WHAT is an element index or the keyword 'transpositions'."""
    from .covers import BranchData

    counts = {}
    if s is None or s.strip() in ("", "none"):
        return BranchData.from_dict(counts)
    for term in s.split(","):
        toks = term.split()
        if len(toks) not in (2, 3):
            raise CliError(f"bad branch term: {term!r}")
        try:
            k = int(toks[0])
        except ValueError:
            raise CliError(f"bad branch count: {toks[0]!r}")
        if k < 0:
            raise CliError("branch counts must be nonnegative")
        cids = _selected_classes(G, toks[1], "branch element")
        if len(cids) != 1:
            raise CliError("ambiguous 'transpositions': several classes")
        sign = 1
        if len(toks) == 3:
            if toks[2] not in ("-", "-1"):
                raise CliError(f"bad framing sign: {toks[2]!r}")
            sign = -1
        key = (cids[0], sign)
        counts[key] = counts.get(key, 0) + k
    return BranchData.from_dict({k: v for k, v in counts.items() if v})


def _is_pair_list(x):
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2
        and all(type(v) is int for v in p) for p in x)


def _load_tuple(G, arg):
    """Tuple argument: a path to a JSON file or an inline JSON object
    {"g": genus, "handles": [[a, b], ...], "punctures": [[w, sign], ...]}."""
    from .covers import tuple_from_json

    text = arg
    if os.path.exists(arg):
        try:
            text = Path(arg).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(f"tuple file is not readable: {e}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"tuple is not valid JSON: {e}")
    if not isinstance(obj, dict) or type(obj.get("g")) is not int:
        raise CliError('tuple must be a JSON object with an integer "g"')
    if not (_is_pair_list(obj.get("handles", []))
            and _is_pair_list(obj.get("punctures", []))):
        raise CliError('tuple "handles" and "punctures" must be lists of '
                       'integer pairs')
    return tuple_from_json(G, obj)


def _read_inputs(G, args):
    """Replace the text of each --tuple, --tuple2, --classes and --branch
    input of the command by the value it selects, reading each once, in
    the order _COMMANDS names them.  With --no-branching C is empty and
    --classes is not read; on diff an absent --classes stays None, the
    classes of the branch data."""
    read = {"tuple": _load_tuple, "tuple2": _load_tuple,
            "classes": parse_classes, "branch": parse_branch}
    given = vars(args)
    for name in _COMMANDS[args.command][0].split():
        if name == "classes" and given.get("no_branching"):
            given[name] = ()
        elif name in read and (given[name] is not None
                               or args.command != "diff"):
            given[name] = read[name](G, given[name])


def _branch_key(v):
    return sorted([list(k), m] for k, m in v.as_dict().items())


def _input_json(x):
    """A BranchData or BranchedTuple input as JSON, for a cache key."""
    from .covers import BranchData, tuple_to_json

    return _branch_key(x) if isinstance(x, BranchData) else tuple_to_json(x)


def _tuple_report(t):
    from .covers import branch_data, tuple_to_json

    return {"tuple": tuple_to_json(t), "branch": _branch_key(branch_data(t))}


def _cache_dir(args):
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    env = os.environ.get("SCHUR_ORBITS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "schur-orbits"


@functools.cache
def _source_digest():
    """sha256 of the package's *.py files, sorted by file name."""
    h = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cache_path(args, G):
    """The cache entry of a job: a digest of the source digest, the group
    digest, the command and the parsed values of its key inputs."""
    keys = _COMMANDS[args.command][0].split()
    payload = {
        "code_version": _source_digest(),
        "group": G.digest,
        "command": args.command,
        "params": {k: vars(args)[k] for k in keys},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_input_json)
    return _cache_dir(args) / f"{sha256(blob.encode()).hexdigest()}.json"


def _render(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _cmd_group_info(G, args):
    A, _ = abelianization(G)
    classes = []
    for cid, rep in enumerate(G.class_reps):
        classes.append({
            "id": cid,
            "rep": rep,
            "size": len(G.class_members(cid)),
            "element_order": G.element_order(rep),
        })
    return {
        "order": G.order,
        "digest": G.digest,
        "abelian": G.is_abelian(),
        "generators": list(G.generators),
        "classes": classes,
        "abelianization": list(A.invariant_factors),
    }


def _cmd_enumerate(G, args):
    from .covers import level_codes, tuple_to_json

    codes, tuples = level_codes(G, args.genus, args.branch,
                                surjective=not args.all, budget=args.budget)
    listed = tuples if args.limit is None else tuples[: args.limit]
    return {"count": int(tuples.size),
            "tuples": [tuple_to_json(t) for t in codes.tuples(listed)]}


def _cmd_orbits(G, args):
    from .covers import hom_branch_type
    from .fastorbits import level_orbits

    v = args.branch
    vec, in_n = hom_branch_type(G, v.class_ids(), v)
    table, n = level_orbits(G, args.genus, v, args.budget)
    return {
        "genus": args.genus,
        "branch": _branch_key(v),
        "hom_branch_type": {"vector": vec, "in_N": in_n},
        "tuples": n,
        "orbits": table.num_orbits,
        "table": table.to_json(),
    }


def _cmd_h2(G, args):
    from .homology import h2_group

    return {"H2": list(h2_group(G).presentation.invariant_factors)}


def _cmd_mgc(G, args):
    from .homology import m_g_c

    M, _ = m_g_c(G, args.classes)
    return {"MGC": list(M.invariant_factors), "classes": list(args.classes)}


def _cmd_h2bgc(G, args):
    from .homology import h1_bgc, h2_bgc, h2_group, pi1_bgc_order

    cids = args.classes
    B = h2_bgc(G, cids)
    return {
        "H2": list(h2_group(G).presentation.invariant_factors),
        "MGC": list(B.m_part.invariant_factors),
        "N_rank": B.n_rank,
        "splitting": B.splitting,
        "H1": list(h1_bgc(G, cids).invariant_factors),
        "pi1_order": pi1_bgc_order(G, cids),
        "classes": list(cids),
    }


def _cmd_sch(G, args):
    from .homology import h2_group, lifting_invariant

    if args.tuple.n != 0:
        raise CliError("sch is defined for closed (unbranched) tuples")
    return {
        "H2": list(h2_group(G).presentation.invariant_factors),
        "coords": list(lifting_invariant(args.tuple, ())),
    }


def _cmd_diff(G, args):
    from .branched_schur import schur_diff

    return schur_diff(args.tuple, args.tuple2, class_ids=args.classes).to_json()


def _cmd_dilate(G, args):
    from .stabilization import dilate

    return _tuple_report(dilate(args.tuple))


def _cmd_stabilize(G, args):
    from .stabilization import handle_stabilize, puncture_stabilize

    t = args.tuple
    for cid in args.classes:
        t = puncture_stabilize(t, cid)
    if args.handle:
        t = handle_stabilize(t)
    return _tuple_report(t)


def _cmd_stable_range(G, args):
    from .stabilization import stable_orbits

    r = stable_orbits(G, args.classes, v_seed=args.branch,
                      g_seed=args.genus_seed, max_rounds=args.max_rounds,
                      enum_budget=args.budget)
    return r.to_json()


def _cmd_torsor_check(G, args):
    from .branched_schur import torsor_check
    from .fastorbits import level_orbits

    table, n = level_orbits(G, args.genus, args.branch, args.budget)
    if table.num_orbits == 0:
        raise CliError("level has no surjective tuples to check")
    report = torsor_check(table.representatives, class_ids=args.classes)
    report["genus"] = args.genus
    report["branch"] = _branch_key(args.branch)
    report["tuples"] = n
    return report


# Each command: (the inputs its cache key reads, as attribute names of
# the parsed command line, run(G, args) -> report dict).  The key inputs
# are all of the command's options but the common five, the ignored ones
# and --csv.  main reads the --tuple, --tuple2, --classes and --branch
# among them in the order given here, before the key is made, so the key
# and run both see the parsed values.
_COMMANDS = {
    "group-info": ("", _cmd_group_info),
    "enumerate": ("genus branch all budget limit", _cmd_enumerate),
    "orbits": ("genus branch budget", _cmd_orbits),
    "h2": ("", _cmd_h2),
    "mgc": ("classes", _cmd_mgc),
    "h2bgc": ("classes", _cmd_h2bgc),
    "sch": ("tuple", _cmd_sch),
    "diff": ("classes tuple tuple2", _cmd_diff),
    "dilate": ("tuple", _cmd_dilate),
    "stabilize": ("tuple classes handle", _cmd_stabilize),
    "stable-range": ("classes branch no_branching genus_seed max_rounds "
                     "budget", _cmd_stable_range),
    "torsor-check": ("classes no_branching genus branch budget",
                     _cmd_torsor_check),
}


_REQUIRED = object()
_IGNORED = "accepted for compatibility and ignored"
_HELP = {"-h": ("help",), "--help": ("help",)}
_LEVELS, _TRACKS = "enumerate orbits", "stable-range torsor-check"

# The command line: (option, kind, default, help, the commands that take
# it, all of them when None).  kind is str, int or bool, a flag that is
# False unless given; an option whose default is _REQUIRED must be given.
_OPTIONS = (
    ("--group", str, _REQUIRED, "group JSON file", None),
    ("--out", str, None, "write the report here instead of stdout", None),
    ("--cache-dir", str, None, "cache directory "
     "(default: $SCHUR_ORBITS_CACHE or ~/.cache/schur-orbits)", None),
    ("--no-cache", bool, False, "", None),
    ("--threads", int, None, _IGNORED, None),
    ("--tuple", str, _REQUIRED, "tuple JSON (inline or a file path)", "sch diff dilate stabilize"),
    ("--tuple2", str, _REQUIRED, "", "diff"),
    ("--classes", str, None, "'all', 'none', 'transpositions', or comma-separated element indices",
     f"mgc h2bgc diff stabilize {_TRACKS}"),
    ("--branch", str, None, "e.g. '4 transpositions' or '2 5, 1 5 -'", f"{_LEVELS} {_TRACKS}"),
    ("--genus", int, _REQUIRED, "", f"{_LEVELS} torsor-check"),
    ("--all", bool, False, "include non-surjective tuples", "enumerate"),
    ("--budget", int, DEFAULT_BUDGET, "", f"{_LEVELS} {_TRACKS}"),
    ("--budget", int, None, _IGNORED, "diff"),
    ("--limit", int, None, "cap the number of tuples listed in the report", "enumerate"),
    ("--handle", bool, False, "", "stabilize"),
    ("--no-branching", bool, False, "C = empty set (closed unbranched track)", _TRACKS),
    ("--genus-seed", int, None, "", "stable-range"),
    ("--max-rounds", int, 6, "", "stable-range"),
    ("--csv", str, None, "also write a level/orbit-count CSV grid", "stable-range"),
    ("--diff-budget", int, None, _IGNORED, "torsor-check"),
)


def _options(command):
    """{option: (kind, default, help)} of a command."""
    return {o: (kind, default, text)
            for o, kind, default, text, commands in _OPTIONS
            if commands is None or command in commands.split()}


def _usage(command):
    if command is None:
        return ("usage: schur-orbits [-h] [--version] COMMAND [OPTION ...]\n"
                "Mapping-class-group orbits of branched covers and the reduced "
                f"Schur multiplier M(G)_C.\ncommands: {', '.join(_COMMANDS)}\n")
    return "".join([f"usage: schur-orbits {command} [-h] [OPTION ...]\n"] + [
        f"  {o if kind is bool else f'{o} {o[2:].upper()}':<26}"
        f"{'(required) ' if d is _REQUIRED else ''}{text}".rstrip() + "\n"
        for o, (kind, d, text) in _options(command).items()])


def _fail(command, message):
    prog = f"schur-orbits {command}" if command else "schur-orbits"
    sys.stderr.write(f"{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_option(word):
    """argparse's rule: a word that begins with '-' is an option unless it
    is '-', a negative number or has a space before any '='."""
    return (word[:1] == "-" and word != "-"
            and not re.fullmatch(r"-\d+|-\d*\.\d+", word)
            and " " not in word.partition("=")[0])


def _parse(argv):
    """The command and one attribute per option of it (no_cache for
    --no-cache), as argparse named them.  An option is named in full or by
    a unique prefix, its value after it or after '='.  A usage error exits
    2 with one line on stderr; -h/--help and --version exit 0."""
    words = list(sys.argv[1:] if argv is None else argv)
    command, options, given = None, {**_HELP, "--version": ("version",)}, {}
    while words:
        word = words.pop(0)
        if not _is_option(word):
            if command or word not in _COMMANDS:
                _fail(command, f"unrecognized arguments: {word}" if command
                      else f"invalid command: {word!r}")
            command, options = word, {**_HELP, **_options(word)}
            continue
        name, eq, value = word.partition("=")
        hits = [name] if name in options else [o for o in options
                                                if o.startswith(name)]
        if len(hits) != 1:
            _fail(command, f"ambiguous option: {name} could match "
                  f"{', '.join(hits)}" if hits else
                  f"unrecognized arguments: {word}")
        opt, kind = hits[0], options[hits[0]][0]
        if eq and kind in (bool, "help", "version"):
            _fail(command, f"argument {opt}: ignored explicit argument "
                           f"{value!r}")
        if kind in ("help", "version"):
            sys.stdout.write(_usage(command) if kind == "help"
                             else f"{__version__}\n")
            raise SystemExit(0)
        if kind is not bool and not eq:
            if not words or _is_option(words[0]):
                _fail(command, f"argument {opt}: expected one argument")
            value = words.pop(0)
        try:
            given[opt] = True if kind is bool else kind(value)
        except ValueError:
            _fail(command, f"argument {opt}: invalid int value: {value!r}")
    if command is None:
        _fail(None, "the following arguments are required: command")
    table = _options(command)
    missing = [o for o, (_, d, _) in table.items()
               if d is _REQUIRED and o not in given]
    if missing:
        _fail(command, "the following arguments are required: "
                       + ", ".join(missing))
    return SimpleNamespace(command=command, **{
        o[2:].replace("-", "_"): given.get(o, d)
        for o, (_, d, _) in table.items()})


def _exit_code(command, report):
    if command == "stable-range" and report.get("verdict") == "inconclusive":
        return 2
    return 0


def _read_cache(path):
    """(report, text) of a cache entry, or None when there is no entry or
    it does not decode to a report (a truncated write, say): a miss."""
    try:
        text = path.read_text()
        report = json.loads(text)
    except (OSError, ValueError):
        return None
    return (report, text) if isinstance(report, dict) else None


def _write_cache(path, text):
    """Write an entry through a temp file named after this process, so
    concurrent writers never interleave; both files follow the umask.
    Then remove the temp files that writers killed mid-write left
    behind.  A cache that cannot be written, like one that cannot be
    read, costs only the entry: one stderr line names the path."""
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        _sweep_stale_temps(path.parent)
    except OSError as e:
        sys.stderr.write(f"schur-orbits: cache entry not written: {path}: "
                         f"{e.strerror or e}\n")


def _sweep_stale_temps(directory):
    """Remove <digest>.<pid>.tmp files whose writer process is gone.  A
    file whose pid is alive (this process included) or unreadable as a
    pid is left alone."""
    for tmp in directory.glob("*.tmp"):
        try:
            pid = int(tmp.name.split(".")[-2])
        except (IndexError, ValueError):
            continue
        if pid <= 0:
            continue  # os.kill would signal a process group
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            tmp.unlink(missing_ok=True)
        except (OSError, OverflowError):
            pass  # alive under another user, or not a valid pid


def _write(path, text, option):
    """Write text to the file that option names; a CliError naming the
    path when it cannot be written."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {option} {path}: {e.strerror or e}") from None


def _write_csv(args, report):
    if getattr(args, "csv", None):
        lines = ["level,g,tuples,orbits"]
        for i, lv in enumerate(report.get("levels", [])):
            lines.append(f"{i},{lv.get('g')},{lv.get('tuples', '')},"
                         f"{lv.get('orbits', '')}")
        _write(args.csv, "\n".join(lines) + "\n", "--csv")


def _error(kind, message):
    return _render({"error": {"kind": kind, "message": message}})


def main(argv=None):
    args = _parse(argv)
    try:
        if any((getattr(args, k, None) or 0) < 0 for k in ("genus", "genus_seed")):
            raise CliError("genus must be nonnegative")
        for k in ("max_rounds", "limit", "budget"):
            if (getattr(args, k, None) or 0) < 0:
                raise CliError(f"--{k.replace('_', '-')} must be nonnegative")
        G = _load_group(args.group)
        _read_inputs(G, args)
        use_cache = not getattr(args, "no_cache", False)
        cpath = _cache_path(args, G) if use_cache else None
        cached = _read_cache(cpath) if use_cache else None
        if cached:
            report, text = cached
        else:
            report = _COMMANDS[args.command][1](G, args)
            text = _render(report)
            if use_cache:
                _write_cache(cpath, text)
        _write_csv(args, report)
        code = _exit_code(args.command, report)
    except BudgetError as e:
        text, code = _error("budget", str(e)), 2
    except DomainError as e:
        text, code = _error("domain", str(e)), 1
    except Exception as e:
        import traceback

        traceback.print_exc()
        text, code = _error("internal", f"{type(e).__name__}: {e}"), 3
    if getattr(args, "out", None):
        try:
            _write(args.out, text, "--out")
            return code
        except CliError as e:  # so this report goes to stdout
            text, code = _error("domain", str(e)), 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: group files, class selectors, JSON reports,
and a digest-keyed result cache.

Every subcommand emits one JSON report (stdout or --out).  Exit codes
come from exception types: 0 success, 1 a groups.DomainError (malformed
input, invalid tuple, a branch class outside C, ...), 2 budget
exhaustion (BudgetError) or an inconclusive stable-range verdict, 3 an
internal error (any other exception: its traceback goes to stderr).
Reports are byte-identical across runs, --threads values (accepted and
ignored) and cache cold/warm runs; the cache stores the serialized
report keyed by a content digest of the job (group table digest,
command, parameters, and a digest of the package's source files, which
covers the move-set tag in moves.py, so a report computed by other code
is never served).  The key is computed only when the cache is used.  An
entry that does not decode is a miss: the report is recomputed and the
entry rewritten.

Only groups and covers are imported here; each command imports the
modules it runs in its own body, so argument parsing, group-info and a
cache hit load neither numpy nor the orbit and homology modules, and
orbits loads neither homology nor stabilization.  numpy comes in only
with the orbit engine (moves and fastorbits): h2, mgc, h2bgc and sch
run homology in Python ints and never load it.  No command loads
OpenSSL: the digests use groups.sha256, CPython's built-in SHA-256.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .covers import (
    BranchData,
    BudgetError,
    branch_data,
    hom_branch_type,
    level_codes,
    tuple_from_json,
    tuple_to_json,
)
from .groups import (
    DomainError,
    _closure_and_bfs_order,
    abelianization,
    build_group,
    sha256,
)

__all__ = ["main"]


class CliError(DomainError):
    pass


def _load_group(path):
    try:
        spec = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"group file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"group file is not valid JSON: {e}")
    if not isinstance(spec, dict):
        raise CliError("group file must hold a JSON object")
    return build_group(spec)


def _element_perms(G):
    """Per-element permutations for permutation-defined groups, in the
    group's own numbering."""
    spec = json.loads(G.generator_spec)
    if "permutations" not in spec:
        raise CliError("selector needs a permutation-defined group")
    perms = [tuple(p) for p in spec["permutations"]]
    n_points = len(perms[0]) if perms else 1
    elems, _ = _closure_and_bfs_order(n_points, perms)
    return elems


def _transposition_classes(G):
    elems = _element_perms(G)
    out = set()
    for x, p in enumerate(elems):
        moved = sum(1 for i, j in enumerate(p) if i != j)
        if moved == 2:
            out.add(G.class_of[x])
    if not out:
        raise CliError("group has no transpositions")
    return tuple(sorted(out))


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
    if sel == "transpositions":
        return _transposition_classes(G)
    out = set()
    for part in sel.split(","):
        part = part.strip()
        try:
            x = int(part)
        except ValueError:
            raise CliError(f"bad class selector entry: {part!r}")
        if not 0 < x < G.order:
            raise CliError(f"element index {x} out of range")
        out.add(G.class_of[x])
    return tuple(sorted(out))


def parse_branch(G, s):
    """Branch data selector: comma-separated terms 'COUNT WHAT [-]',
    e.g. '4 transpositions' or '2 5' or '1 5 -' (negative framing).
    WHAT is an element index or the keyword 'transpositions'."""
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
        if toks[1] == "transpositions":
            cids = _transposition_classes(G)
            if len(cids) != 1:
                raise CliError("ambiguous 'transpositions': several classes")
            cid = cids[0]
        else:
            try:
                x = int(toks[1])
            except ValueError:
                raise CliError(f"bad branch element: {toks[1]!r}")
            if not 0 < x < G.order:
                raise CliError(f"element index {x} out of range")
            cid = G.class_of[x]
        sign = 1
        if len(toks) == 3:
            if toks[2] not in ("-", "-1"):
                raise CliError(f"bad framing sign: {toks[2]!r}")
            sign = -1
        key = (cid, sign)
        counts[key] = counts.get(key, 0) + k
    return BranchData.from_dict({k: v for k, v in counts.items() if v})


def _is_pair_list(x):
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2
        and all(isinstance(v, int) for v in p) for p in x)


def _load_tuple(G, arg):
    """Tuple argument: a path to a JSON file or an inline JSON object
    {"g": genus, "handles": [[a, b], ...], "punctures": [[w, sign], ...]}."""
    text = arg
    if os.path.exists(arg):
        text = Path(arg).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"tuple is not valid JSON: {e}")
    if not isinstance(obj, dict) or not isinstance(obj.get("g"), int):
        raise CliError('tuple must be a JSON object with an integer "g"')
    handles, punctures = obj.get("handles", []), obj.get("punctures", [])
    if not (_is_pair_list(handles) and _is_pair_list(punctures)):
        raise CliError('tuple "handles" and "punctures" must be lists of '
                       'integer pairs')
    letters = [x for h in handles for x in h] + [w for w, _ in punctures]
    if any(not 0 <= x < G.order for x in letters):
        raise CliError(f"tuple letter out of range 0..{G.order - 1}")
    return tuple_from_json(G, obj)


def _branch_key(v):
    return sorted([list(k), m] for k, m in v.as_dict().items())


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


def _cache_path(args, G, params):
    """The cache entry of a job: a digest of the source digest, the group
    digest, the command and its normalized parameters."""
    payload = {
        "code_version": _source_digest(),
        "group": G.digest,
        "command": args.command,
        "params": params,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _cache_dir(args) / f"{sha256(blob.encode()).hexdigest()}.json"


def _render(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# Each command: params(G, args) -> cache-key dict (cheap, normalizes all
# inputs), run(G, args) -> report dict.

def _params_group_info(G, args):
    return {}


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


def _params_enumerate(G, args):
    return {"genus": args.genus, "branch": _branch_key(parse_branch(G, args.branch)),
            "surjective": not args.all, "budget": args.budget,
            "limit": args.limit}


def _cmd_enumerate(G, args):
    v = parse_branch(G, args.branch)
    codes, tuples = level_codes(G, args.genus, v, surjective=not args.all,
                                budget=args.budget)
    listed = tuples if args.limit is None else tuples[: args.limit]
    return {"count": int(tuples.size),
            "tuples": [tuple_to_json(t) for t in codes.tuples(listed)]}


def _params_orbits(G, args):
    return {"genus": args.genus, "branch": _branch_key(parse_branch(G, args.branch)),
            "budget": args.budget}


def _cmd_orbits(G, args):
    from .fastorbits import level_orbits

    v = parse_branch(G, args.branch)
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


def _params_h2(G, args):
    return {}


def _cmd_h2(G, args):
    from .homology import h2_group

    return {"H2": list(h2_group(G).presentation.invariant_factors)}


def _params_classes_only(G, args):
    return {"classes": list(parse_classes(G, args.classes))}


def _cmd_mgc(G, args):
    from .homology import m_g_c

    cids = parse_classes(G, args.classes)
    M, _ = m_g_c(G, cids)
    return {"MGC": list(M.invariant_factors), "classes": list(cids)}


def _cmd_h2bgc(G, args):
    from .homology import h1_bgc, h2_bgc, h2_group, pi1_bgc_order

    cids = parse_classes(G, args.classes)
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


def _params_sch(G, args):
    return {"tuple": tuple_to_json(_load_tuple(G, args.tuple))}


def _cmd_sch(G, args):
    from .homology import h2_group, sch_unbranched

    t = _load_tuple(G, args.tuple)
    if t.n != 0:
        raise CliError("sch is defined for closed (unbranched) tuples")
    return {
        "H2": list(h2_group(G).presentation.invariant_factors),
        "coords": list(sch_unbranched(G, t.handles)),
    }


def _params_diff(G, args):
    cids = parse_classes(G, args.classes) if args.classes is not None else None
    return {"tuple": tuple_to_json(_load_tuple(G, args.tuple)),
            "tuple2": tuple_to_json(_load_tuple(G, args.tuple2)),
            "classes": list(cids) if cids is not None else None}


def _cmd_diff(G, args):
    from .branched_schur import schur_diff

    t = _load_tuple(G, args.tuple)
    t2 = _load_tuple(G, args.tuple2)
    cids = parse_classes(G, args.classes) if args.classes is not None else None
    return schur_diff(t, t2, class_ids=cids).to_json()


def _params_dilate(G, args):
    return {"tuple": tuple_to_json(_load_tuple(G, args.tuple))}


def _cmd_dilate(G, args):
    from .stabilization import dilate

    out = dilate(_load_tuple(G, args.tuple))
    return {"tuple": tuple_to_json(out),
            "branch": _branch_key(branch_data(out))}


def _params_stabilize(G, args):
    return {"tuple": tuple_to_json(_load_tuple(G, args.tuple)),
            "classes": list(parse_classes(G, args.classes)),
            "handle": bool(args.handle)}


def _cmd_stabilize(G, args):
    from .stabilization import handle_stabilize, puncture_stabilize

    t = _load_tuple(G, args.tuple)
    for cid in parse_classes(G, args.classes):
        t = puncture_stabilize(t, cid)
    if args.handle:
        t = handle_stabilize(t)
    return {"tuple": tuple_to_json(t), "branch": _branch_key(branch_data(t))}


def _stable_range_classes(G, args):
    return () if args.no_branching else parse_classes(G, args.classes)


def _params_stable_range(G, args):
    return {"classes": list(_stable_range_classes(G, args)),
            "branch": _branch_key(parse_branch(G, args.branch)),
            "genus_seed": args.genus_seed,
            "max_rounds": args.max_rounds, "budget": args.budget}


def _cmd_stable_range(G, args):
    from .stabilization import stable_orbits

    cids = _stable_range_classes(G, args)
    v = parse_branch(G, args.branch)
    r = stable_orbits(G, cids, v_seed=v, g_seed=args.genus_seed,
                      max_rounds=args.max_rounds, enum_budget=args.budget)
    return r.to_json()


def _params_torsor_check(G, args):
    return {"classes": list(_stable_range_classes(G, args)),
            "genus": args.genus,
            "branch": _branch_key(parse_branch(G, args.branch)),
            "budget": args.budget}


def _cmd_torsor_check(G, args):
    from .branched_schur import torsor_check
    from .fastorbits import level_orbits

    cids = _stable_range_classes(G, args)
    v = parse_branch(G, args.branch)
    table, n = level_orbits(G, args.genus, v, args.budget)
    if table.num_orbits == 0:
        raise CliError("level has no surjective tuples to check")
    report = torsor_check(table.representatives, class_ids=cids)
    report["genus"] = args.genus
    report["branch"] = _branch_key(v)
    report["tuples"] = n
    return report


_COMMANDS = {
    "group-info": (_params_group_info, _cmd_group_info),
    "enumerate": (_params_enumerate, _cmd_enumerate),
    "orbits": (_params_orbits, _cmd_orbits),
    "h2": (_params_h2, _cmd_h2),
    "mgc": (_params_classes_only, _cmd_mgc),
    "h2bgc": (_params_classes_only, _cmd_h2bgc),
    "sch": (_params_sch, _cmd_sch),
    "diff": (_params_diff, _cmd_diff),
    "dilate": (_params_dilate, _cmd_dilate),
    "stabilize": (_params_stabilize, _cmd_stabilize),
    "stable-range": (_params_stable_range, _cmd_stable_range),
    "torsor-check": (_params_torsor_check, _cmd_torsor_check),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="schur-orbits",
        description="Mapping-class-group orbits of branched covers and the "
                    "reduced Schur multiplier M(G)_C.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tuples=0, classes=False, branch=False, genus=False):
        sp.add_argument("--group", required=True, help="group JSON file")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--cache-dir", help="cache directory "
                        "(default: $SCHUR_ORBITS_CACHE or ~/.cache/schur-orbits)")
        sp.add_argument("--no-cache", action="store_true")
        sp.add_argument("--threads", type=int,
                        help="accepted for compatibility and ignored")
        if tuples >= 1:
            sp.add_argument("--tuple", required=True,
                            help="tuple JSON (inline or a file path)")
        if tuples >= 2:
            sp.add_argument("--tuple2", required=True)
        if classes:
            sp.add_argument("--classes", default=None,
                            help="'all', 'none', 'transpositions', or "
                                 "comma-separated element indices")
        if branch:
            sp.add_argument("--branch", default=None,
                            help="e.g. '4 transpositions' or '2 5, 1 5 -'")
        if genus:
            sp.add_argument("--genus", type=int, required=True)

    sp = sub.add_parser("group-info")
    common(sp)

    sp = sub.add_parser("enumerate")
    common(sp, branch=True, genus=True)
    sp.add_argument("--all", action="store_true",
                    help="include non-surjective tuples")
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp.add_argument("--limit", type=int, default=None,
                    help="cap the number of tuples listed in the report")

    sp = sub.add_parser("orbits")
    common(sp, branch=True, genus=True)
    sp.add_argument("--budget", type=int, default=2_000_000)

    sp = sub.add_parser("h2")
    common(sp)

    for name in ("mgc", "h2bgc"):
        sp = sub.add_parser(name)
        common(sp, classes=True)

    sp = sub.add_parser("sch")
    common(sp, tuples=1)

    sp = sub.add_parser("diff")
    common(sp, tuples=2, classes=True)
    sp.add_argument("--budget", type=int,
                    help="accepted for compatibility and ignored")

    sp = sub.add_parser("dilate")
    common(sp, tuples=1)

    sp = sub.add_parser("stabilize")
    common(sp, tuples=1, classes=True)
    sp.add_argument("--handle", action="store_true")

    sp = sub.add_parser("stable-range")
    common(sp, classes=True, branch=True)
    sp.add_argument("--no-branching", action="store_true",
                    help="C = empty set (closed unbranched track)")
    sp.add_argument("--genus-seed", type=int, default=None)
    sp.add_argument("--max-rounds", type=int, default=6)
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp.add_argument("--csv", help="also write a level/orbit-count CSV grid")

    sp = sub.add_parser("torsor-check")
    common(sp, classes=True, branch=True, genus=True)
    sp.add_argument("--no-branching", action="store_true")
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp.add_argument("--diff-budget", type=int,
                    help="accepted for compatibility and ignored")
    return p


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
    behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _sweep_stale_temps(path.parent)


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


def _emit(args, text):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, report):
    if getattr(args, "csv", None):
        lines = ["level,g,tuples,orbits"]
        for i, lv in enumerate(report.get("levels", [])):
            lines.append(f"{i},{lv.get('g')},{lv.get('tuples', '')},"
                         f"{lv.get('orbits', '')}")
        Path(args.csv).write_text("\n".join(lines) + "\n")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if any((getattr(args, k, None) or 0) < 0 for k in ("genus", "genus_seed")):
            raise CliError("genus must be nonnegative")
        for k in ("max_rounds", "limit", "budget"):
            if (getattr(args, k, None) or 0) < 0:
                raise CliError(f"--{k.replace('_', '-')} must be nonnegative")
        G = _load_group(args.group)
        param_fn, run_fn = _COMMANDS[args.command]
        params = param_fn(G, args)  # validates the inputs
        use_cache = not getattr(args, "no_cache", False)
        cpath = _cache_path(args, G, params) if use_cache else None
        cached = _read_cache(cpath) if use_cache else None
        if cached:
            report, text = cached
        else:
            report = run_fn(G, args)
            text = _render(report)
            if use_cache:
                _write_cache(cpath, text)
        _write_csv(args, report)
        _emit(args, text)
        return _exit_code(args.command, report)
    except BudgetError as e:
        _emit(args, _render({"error": {"kind": "budget", "message": str(e)}}))
        return 2
    except DomainError as e:
        _emit(args, _render({"error": {"kind": "domain", "message": str(e)}}))
        return 1
    except Exception as e:
        traceback.print_exc()
        _emit(args, _render({"error": {"kind": "internal",
                                       "message": f"{type(e).__name__}: {e}"}}))
        return 3


if __name__ == "__main__":
    sys.exit(main())

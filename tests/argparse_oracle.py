"""The argparse parser of the command line, kept as the reference the
option table of schur_orbits.cli is checked against: for every argv it
accepts, vars(_build_parser().parse_args(argv)) must equal
vars(cli._parse(argv)).  This is the parser the CLI used before the
table replaced it, unchanged."""

import argparse

from schur_orbits import __version__


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

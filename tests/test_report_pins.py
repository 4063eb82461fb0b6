"""The report bytes of the benchmark's seed-0 jobs, pinned.

Each job runs in-process with --no-cache; its stdout must have the
pinned SHA-256 and its exit code must be 0.  The groups and arguments
are those of the benchmark's four workloads at seed 0, written out
here.  A change that alters a report updates its pin and says which
report changed and why.
"""

import json
from hashlib import sha256

import pytest

from schur_orbits import cli

GROUPS = {
    "s3": [[1, 0, 2], [1, 2, 0]],
    "s4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "a4": [[1, 2, 0, 3], [0, 2, 3, 1]],
    "d4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "k4": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "z2^4": [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
             [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]],
}

TORUS = json.dumps({"g": 1, "handles": [[1, 2]], "punctures": []})

# name: (command, group, arguments, SHA-256 of stdout)
JOBS = {
    "orbits-s4-g0-6t": (
        "orbits", "s4", ["--genus", "0", "--branch", "6 transpositions"],
        "5287417a00215a1f62f9c50fa97784778c05e07c96a2f23d2ceeaa99e19aeac3"),
    "orbits-s3-g1-6t": (
        "orbits", "s3", ["--genus", "1", "--branch", "6 transpositions"],
        "fc378e3c31c1adb0b29925f7bbbd9300d534d0d9374eacda276038aeabce0168"),
    "orbits-a4-g0-3c3c-": (
        "orbits", "a4", ["--genus", "0", "--branch", "3 1, 3 1 -"],
        "07bcb9c190a9b2b9d4be4e7b9e66663852c7186e6eb0cf9b93f3e94b7d924e9f"),
    "orbits-a4-g0-6c": (
        "orbits", "a4", ["--genus", "0", "--branch", "6 1"],
        "40a7fe52b7198c89be7e9351976c250c964efb56b1007b963f5aa27fc82e2be8"),
    "orbits-a4-g3": (
        "orbits", "a4", ["--genus", "3"],
        "57fb7e643373f3cd274983f3c5b59dab8c62828dad3a71e358f8c4b59db6597f"),
    "orbits-d4-g3": (
        "orbits", "d4", ["--genus", "3"],
        "db51800dfeebf35e09cdf6515728ccc7fc2b080764ffa33a00110a9f6045e259"),
    "h2-s4": (
        "h2", "s4", [],
        "1281c66cbc230616ca8ac19bf7455fdb2d5663c8ef9734271dd1a784018f4a0d"),
    "h2-z2^4": (
        "h2", "z2^4", [],
        "81559fd36200d572000452f5d16ba891911b969c066e71302bf948c28c62e8c7"),
    "h2bgc-d4-all": (
        "h2bgc", "d4", ["--classes", "all"],
        "e0236913a43b113270c629bdd518d213d5488f4c84b91f4bfceae171b1cb7d5c"),
    "mgc-a4-c1": (
        "mgc", "a4", ["--classes", "1"],
        "e9987e642920b17d75ce549b672e6b061d92195d60292563703255e16ad2e78d"),
    "sch-k4-g1": (
        "sch", "k4", ["--tuple", TORUS],
        "6173a0dd430c790e8e3f40692bba275815e7082fcba2255f5d035f52bf226c72"),
    "stable-range-s3-t": (
        "stable-range", "s3", ["--classes", "transpositions"],
        "c71613847f72cc6bf0e8b712ad0b3d752bc3f0fd322917fb5b65759deb45fea6"),
    "stable-range-k4-closed": (
        "stable-range", "k4", ["--no-branching"],
        "17f75db2b33d67e9b3f09558f679752b32e882b66cdf3f23ae287d45656b78d5"),
    "torsor-k4-g2": (
        "torsor-check", "k4", ["--no-branching", "--genus", "2"],
        "59b0700a261e764b45fc98a0ee75066fdcd3fdd8f199f1c0010183e30b3a008d"),
    "torsor-d4-g2": (
        "torsor-check", "d4", ["--no-branching", "--genus", "2"],
        "34fd32149dd0ef4fda888ca650e792d5d71d2bd90f7c235c96504e3acc6b7a58"),
    "torsor-s3-g0-6t": (
        "torsor-check", "s3", ["--classes", "transpositions", "--genus", "0",
                               "--branch", "6 transpositions"],
        "0ce74e8a2eb253af4a2e1e8c6f793dd259884c275aa300691920f2960000c0a6"),
    "torsor-a4-g0-6c": (
        "torsor-check", "a4", ["--classes", "1", "--genus", "0",
                               "--branch", "6 1"],
        "b2d5e7e345f5550506511f980cf3e3523b78397fb84d0eb7601c2a5be4a8a529"),
}


@pytest.fixture(scope="module")
def group_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("groups")
    paths = {}
    for name, perms in GROUPS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({"permutations": perms}))
    return paths


@pytest.mark.parametrize("name", JOBS)
def test_report_bytes_are_pinned(name, group_files, capsys):
    command, group, args, digest = JOBS[name]
    code = cli.main([command, "--group", str(group_files[group]), *args,
                     "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert sha256(out.encode()).hexdigest() == digest, out

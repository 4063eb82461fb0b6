"""The report bytes of the benchmark's jobs at seeds 0, 1 and 3, pinned.

Each job runs in-process with --no-cache; its stdout must have the
pinned SHA-256 and its exit code must be 0.  The groups and arguments
are those of the benchmark's four workloads, written out here: at seeds
other than 0 the benchmark numbers each group from other generators,
and an element-index argument names the element that seed 0's index
does.  A change that alters a report updates its pin and says which
report changed and why.
"""

import json
from hashlib import sha256

import pytest

from schur_orbits import cli

# seed: (generators by group, the A4 element of index 1 at seed 0, the
# K4 elements of indices 1 and 2 at seed 0)
SEEDS = {
    0: ({
        "s3": [[1, 0, 2], [1, 2, 0]],
        "s4": [[1, 0, 2, 3], [1, 2, 3, 0]],
        "a4": [[1, 2, 0, 3], [0, 2, 3, 1]],
        "d4": [[1, 2, 3, 0], [0, 3, 2, 1]],
        "k4": [[1, 0, 3, 2], [2, 3, 0, 1]],
        "z2^4": [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
                  [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]],
    }, 1, (1, 2)),
    1: ({
        "s3": [[0, 2, 1], [1, 0, 2]],
        "s4": [[1, 2, 3, 0], [2, 0, 1, 3]],
        "a4": [[1, 2, 0, 3], [3, 1, 0, 2]],
        "d4": [[0, 3, 2, 1], [1, 0, 3, 2]],
        "k4": [[2, 3, 0, 1], [3, 2, 1, 0]],
        "z2^4": [[1, 0, 2, 3, 5, 4, 6, 7], [1, 0, 3, 2, 5, 4, 6, 7],
                  [1, 0, 3, 2, 5, 4, 7, 6], [0, 1, 3, 2, 5, 4, 7, 6]],
    }, 1, (3, 1)),
    3: ({
        "s3": [[0, 2, 1], [1, 0, 2]],
        "s4": [[3, 0, 2, 1], [2, 0, 3, 1]],
        "a4": [[3, 1, 0, 2], [1, 3, 2, 0]],
        "d4": [[3, 2, 1, 0], [2, 1, 0, 3]],
        "k4": [[3, 2, 1, 0], [2, 3, 0, 1]],
        "z2^4": [[1, 0, 2, 3, 5, 4, 7, 6], [1, 0, 3, 2, 4, 5, 7, 6],
                  [0, 1, 2, 3, 4, 5, 7, 6], [0, 1, 2, 3, 5, 4, 6, 7]],
    }, 4, (3, 2)),
}


def _jobs(a, torus):
    """name: (command, group, arguments) of the benchmark's jobs, with
    a the A4 element and torus the K4 handle of a seed."""
    sch_tuple = json.dumps({"g": 1, "handles": [list(torus)],
                            "punctures": []})
    return {
        "orbits-s4-g0-6t": (
            "orbits", "s4", ["--genus", "0", "--branch", "6 transpositions"]),
        "orbits-s3-g1-6t": (
            "orbits", "s3", ["--genus", "1", "--branch", "6 transpositions"]),
        "orbits-a4-g0-3c3c-": (
            "orbits", "a4", ["--genus", "0", "--branch", f"3 {a}, 3 {a} -"]),
        "orbits-a4-g0-6c": (
            "orbits", "a4", ["--genus", "0", "--branch", f"6 {a}"]),
        "orbits-a4-g3": ("orbits", "a4", ["--genus", "3"]),
        "orbits-d4-g3": ("orbits", "d4", ["--genus", "3"]),
        "h2-s4": ("h2", "s4", []),
        "h2-z2^4": ("h2", "z2^4", []),
        "h2bgc-d4-all": ("h2bgc", "d4", ["--classes", "all"]),
        "mgc-a4-c1": ("mgc", "a4", ["--classes", str(a)]),
        "sch-k4-g1": ("sch", "k4", ["--tuple", sch_tuple]),
        "stable-range-s3-t": (
            "stable-range", "s3", ["--classes", "transpositions"]),
        "stable-range-k4-closed": ("stable-range", "k4", ["--no-branching"]),
        "torsor-k4-g2": (
            "torsor-check", "k4", ["--no-branching", "--genus", "2"]),
        "torsor-d4-g2": (
            "torsor-check", "d4", ["--no-branching", "--genus", "2"]),
        "torsor-s3-g0-6t": (
            "torsor-check", "s3", ["--classes", "transpositions", "--genus",
                                   "0", "--branch", "6 transpositions"]),
        "torsor-a4-g0-6c": (
            "torsor-check", "a4", ["--classes", str(a), "--genus", "0",
                                   "--branch", f"6 {a}"]),
    }


# seed: {name: SHA-256 of stdout}
PINS = {
    0: {
        "orbits-s4-g0-6t":
            "5287417a00215a1f62f9c50fa97784778c05e07c96a2f23d2ceeaa99e19aeac3",
        "orbits-s3-g1-6t":
            "fc378e3c31c1adb0b29925f7bbbd9300d534d0d9374eacda276038aeabce0168",
        "orbits-a4-g0-3c3c-":
            "07bcb9c190a9b2b9d4be4e7b9e66663852c7186e6eb0cf9b93f3e94b7d924e9f",
        "orbits-a4-g0-6c":
            "40a7fe52b7198c89be7e9351976c250c964efb56b1007b963f5aa27fc82e2be8",
        "orbits-a4-g3":
            "57fb7e643373f3cd274983f3c5b59dab8c62828dad3a71e358f8c4b59db6597f",
        "orbits-d4-g3":
            "db51800dfeebf35e09cdf6515728ccc7fc2b080764ffa33a00110a9f6045e259",
        "h2-s4":
            "1281c66cbc230616ca8ac19bf7455fdb2d5663c8ef9734271dd1a784018f4a0d",
        "h2-z2^4":
            "81559fd36200d572000452f5d16ba891911b969c066e71302bf948c28c62e8c7",
        "h2bgc-d4-all":
            "e0236913a43b113270c629bdd518d213d5488f4c84b91f4bfceae171b1cb7d5c",
        "mgc-a4-c1":
            "e9987e642920b17d75ce549b672e6b061d92195d60292563703255e16ad2e78d",
        "sch-k4-g1":
            "6173a0dd430c790e8e3f40692bba275815e7082fcba2255f5d035f52bf226c72",
        "stable-range-s3-t":
            "c71613847f72cc6bf0e8b712ad0b3d752bc3f0fd322917fb5b65759deb45fea6",
        "stable-range-k4-closed":
            "17f75db2b33d67e9b3f09558f679752b32e882b66cdf3f23ae287d45656b78d5",
        "torsor-k4-g2":
            "59b0700a261e764b45fc98a0ee75066fdcd3fdd8f199f1c0010183e30b3a008d",
        "torsor-d4-g2":
            "34fd32149dd0ef4fda888ca650e792d5d71d2bd90f7c235c96504e3acc6b7a58",
        "torsor-s3-g0-6t":
            "0ce74e8a2eb253af4a2e1e8c6f793dd259884c275aa300691920f2960000c0a6",
        "torsor-a4-g0-6c":
            "b2d5e7e345f5550506511f980cf3e3523b78397fb84d0eb7601c2a5be4a8a529",
    },
    1: {
        "orbits-s4-g0-6t":
            "5e484e52828b5381e9f5d3f6d166d482da87845777b8c90e11f91de9d59c2043",
        "orbits-s3-g1-6t":
            "83425d8f5bac64d0c950e281a3d5e5d9ce6c521a1d205fd2270686c421c5f51a",
        "orbits-a4-g0-3c3c-":
            "07bcb9c190a9b2b9d4be4e7b9e66663852c7186e6eb0cf9b93f3e94b7d924e9f",
        "orbits-a4-g0-6c":
            "40a7fe52b7198c89be7e9351976c250c964efb56b1007b963f5aa27fc82e2be8",
        "orbits-a4-g3":
            "57fb7e643373f3cd274983f3c5b59dab8c62828dad3a71e358f8c4b59db6597f",
        "orbits-d4-g3":
            "e8dadda6022bccd56230301a3b172b001cfdd4f81c64ca184ec64ed9ea25a452",
        "h2-s4":
            "1281c66cbc230616ca8ac19bf7455fdb2d5663c8ef9734271dd1a784018f4a0d",
        "h2-z2^4":
            "81559fd36200d572000452f5d16ba891911b969c066e71302bf948c28c62e8c7",
        "h2bgc-d4-all":
            "e0236913a43b113270c629bdd518d213d5488f4c84b91f4bfceae171b1cb7d5c",
        "mgc-a4-c1":
            "e9987e642920b17d75ce549b672e6b061d92195d60292563703255e16ad2e78d",
        "sch-k4-g1":
            "6173a0dd430c790e8e3f40692bba275815e7082fcba2255f5d035f52bf226c72",
        "stable-range-s3-t":
            "4e61e97831fbd8062b974a8b78f6fcdaf60e4fb96178c6597758751cdd08fb95",
        "stable-range-k4-closed":
            "17f75db2b33d67e9b3f09558f679752b32e882b66cdf3f23ae287d45656b78d5",
        "torsor-k4-g2":
            "59b0700a261e764b45fc98a0ee75066fdcd3fdd8f199f1c0010183e30b3a008d",
        "torsor-d4-g2":
            "34fd32149dd0ef4fda888ca650e792d5d71d2bd90f7c235c96504e3acc6b7a58",
        "torsor-s3-g0-6t":
            "0ce74e8a2eb253af4a2e1e8c6f793dd259884c275aa300691920f2960000c0a6",
        "torsor-a4-g0-6c":
            "b2d5e7e345f5550506511f980cf3e3523b78397fb84d0eb7601c2a5be4a8a529",
    },
    3: {
        "orbits-s4-g0-6t":
            "1e890803f54647e4814afffc621e9714f9e9a9efc1617a8ba6a545b46a684e3d",
        "orbits-s3-g1-6t":
            "83425d8f5bac64d0c950e281a3d5e5d9ce6c521a1d205fd2270686c421c5f51a",
        "orbits-a4-g0-3c3c-":
            "a4da37a11af269b9bd5d82836467606216b158974d709c672da73a7d7199cffe",
        "orbits-a4-g0-6c":
            "4487a803897d266d58b5fb9c72057c5b4ddb59f7f3d038fe2cdb490ab7066555",
        "orbits-a4-g3":
            "21e052e47fd4a71902fb2ed4fa03f4db66bc6bce9f430814781ef93976e399ea",
        "orbits-d4-g3":
            "e8dadda6022bccd56230301a3b172b001cfdd4f81c64ca184ec64ed9ea25a452",
        "h2-s4":
            "1281c66cbc230616ca8ac19bf7455fdb2d5663c8ef9734271dd1a784018f4a0d",
        "h2-z2^4":
            "81559fd36200d572000452f5d16ba891911b969c066e71302bf948c28c62e8c7",
        "h2bgc-d4-all":
            "e0236913a43b113270c629bdd518d213d5488f4c84b91f4bfceae171b1cb7d5c",
        "mgc-a4-c1":
            "047960a3f51517e6da194846006fe1dbc15e03237e9f1682bef8e2ed35c7d79f",
        "sch-k4-g1":
            "6173a0dd430c790e8e3f40692bba275815e7082fcba2255f5d035f52bf226c72",
        "stable-range-s3-t":
            "4e61e97831fbd8062b974a8b78f6fcdaf60e4fb96178c6597758751cdd08fb95",
        "stable-range-k4-closed":
            "17f75db2b33d67e9b3f09558f679752b32e882b66cdf3f23ae287d45656b78d5",
        "torsor-k4-g2":
            "59b0700a261e764b45fc98a0ee75066fdcd3fdd8f199f1c0010183e30b3a008d",
        "torsor-d4-g2":
            "34fd32149dd0ef4fda888ca650e792d5d71d2bd90f7c235c96504e3acc6b7a58",
        "torsor-s3-g0-6t":
            "0ce74e8a2eb253af4a2e1e8c6f793dd259884c275aa300691920f2960000c0a6",
        "torsor-a4-g0-6c":
            "768f6ffecfe1226d275fa8783d1b2a4787cc0efad0add3f272d73c20ce07c2ad",
    },
}


@pytest.fixture(scope="module")
def group_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("groups")
    paths = {}
    for seed, (groups, _, _) in SEEDS.items():
        for name, perms in groups.items():
            paths[seed, name] = root / f"{seed}-{name}.json"
            paths[seed, name].write_text(json.dumps({"permutations": perms}))
    return paths


# a seed-0 job's id is its name
@pytest.mark.parametrize("seed,name", [
    pytest.param(seed, name, id=name + (f"-seed{seed}" if seed else ""))
    for seed, pins in PINS.items() for name in pins])
def test_report_bytes_are_pinned(seed, name, group_files, capsys):
    _, a, torus = SEEDS[seed]
    command, group, args = _jobs(a, torus)[name]
    code = cli.main([command, "--group", str(group_files[seed, group]),
                     *args, "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert sha256(out.encode()).hexdigest() == PINS[seed][name], out

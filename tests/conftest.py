import pytest

from schur_orbits.covers import BranchData, BranchedTuple, enumerate_tuples
from schur_orbits.groups import build_group


def cyclic(n):
    return build_group({"permutations": [list(range(1, n)) + [0]]})


def quaternion_table():
    # units {1,-1,i,-i,j,-j,k,-k} as indices 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a, b):
        sa, ua = (1, a) if not a.startswith("-") else (-1, a[1:])
        sb, ub = (1, b) if not b.startswith("-") else (-1, b[1:])
        rules = {
            ("1", "1"): (1, "1"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
        }
        if ua == "1":
            s, u = 1, ub
        elif ub == "1":
            s, u = 1, ua
        else:
            s, u = rules[(ua, ub)]
        s *= sa * sb
        return ("" if s == 1 else "-") + u

    idx = {n: i for i, n in enumerate(names)}
    table = [[idx[mul(a, b)] for b in names] for a in names]
    return {"cayley_table": table}


def generalized_quaternion_table(n):
    """Q_{4n} = <a, b | a^{2n} = 1, b^2 = a^n, b a b^-1 = a^-1>, element
    a^i b^j at index i + 2n j."""
    k = 2 * n

    def mul(i, j, u, v):  # a^i b^j . a^u b^v, using b^j a^u = a^{+-u} b^j
        i = (i + (-u if j else u)) % k
        if j and v:
            return (i + n) % k
        return i + k * (j or v)

    elems = [(i, j) for j in (0, 1) for i in range(k)]
    return {"cayley_table": [[mul(i, j, u, v) for u, v in elems]
                             for i, j in elems]}


GROUP_SPECS = {
    "z2": {"permutations": [[1, 0]]},
    "z3": {"permutations": [[1, 2, 0]]},
    "z4": {"permutations": [[1, 2, 3, 0]]},
    "z5": {"permutations": [[1, 2, 3, 4, 0]]},
    "z6": {"permutations": [[1, 2, 3, 4, 5, 0]]},
    "s3": {"permutations": [[1, 0, 2], [1, 2, 0]]},
    "k4": {"permutations": [[1, 0, 3, 2], [2, 3, 0, 1]]},
    "d4": {"permutations": [[1, 2, 3, 0], [0, 3, 2, 1]]},
    "q8": quaternion_table(),
    "a4": {"permutations": [[1, 2, 0, 3], [0, 2, 3, 1]]},
    "s4": {"permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]},
    "z2z4": {"permutations": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]},
    "z3z3": {"permutations": [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]},
    "z4z4": {"permutations": [[1, 2, 3, 0, 4, 5, 6, 7],
                              [0, 1, 2, 3, 5, 6, 7, 4]]},
    "z2^4": {"permutations": [[1, 0, 2, 3, 4, 5, 6, 7],
                              [0, 1, 3, 2, 4, 5, 6, 7],
                              [0, 1, 2, 3, 5, 4, 6, 7],
                              [0, 1, 2, 3, 4, 5, 7, 6]]},
    "d8": {"permutations": [[1, 2, 3, 4, 5, 6, 7, 0],  # dihedral, order 16
                            [0, 7, 6, 5, 4, 3, 2, 1]]},
    "q16": generalized_quaternion_table(4),
}

_CACHE = {}


def get_group(name):
    if name not in _CACHE:
        _CACHE[name] = build_group(GROUP_SPECS[name])
    return _CACHE[name]


def closed_tuple(G, handles):
    """The closed tuple of a list of handle pairs."""
    return BranchedTuple(G, len(handles), tuple(handles), ())


_LEVELS = {}


def get_level(name, g, spec=()):
    """Surjective tuples of a level of a named group; spec lists
    (element, sign, count): count punctures of that sign in the class of
    the element."""
    key = (name, g, spec)
    if key not in _LEVELS:
        G = get_group(name)
        v = BranchData.from_dict({(G.class_of[x], o): k for x, o, k in spec})
        _LEVELS[key] = enumerate_tuples(G, g, v, surjective=True)
    return _LEVELS[key]


@pytest.fixture(scope="session")
def s3():
    return get_group("s3")


@pytest.fixture(scope="session")
def k4():
    return get_group("k4")


@pytest.fixture(scope="session")
def q8():
    return get_group("q8")


@pytest.fixture(scope="session")
def d4():
    return get_group("d4")


@pytest.fixture(scope="session")
def a4():
    return get_group("a4")


@pytest.fixture(scope="session")
def s4():
    return get_group("s4")


@pytest.fixture(scope="session")
def z2z4():
    return get_group("z2z4")


def transposition_class(G):
    """Class id of the order-2 class of size |G|/2 in S3-like groups;
    for S3 specifically, the transpositions."""
    for cid, rep in enumerate(G.class_reps):
        if rep != 0 and G.element_order(rep) == 2:
            return cid
    raise AssertionError("no involution class")

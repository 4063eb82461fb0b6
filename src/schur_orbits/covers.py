"""Branched G-covers of surfaces as group tuples.

A cover of a genus-g surface with n branch points is stored as handle
pairs (a_i, b_i) plus an ordered list of signed puncture letters (w_j,
o_j), subject to the surface relation

    [a_1,b_1] ... [a_g,b_g] w_1 ... w_n = 1.

The sign o_j records whether the branch-disk trivialization agrees with
the surface orientation; the branch class of puncture j is the class of
w_j^{o_j}.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .groups import BudgetError, DomainError, abelianization, generates
from .records import Frozen

__all__ = [
    "BudgetError",
    "BranchedTuple",
    "BranchData",
    "make_tuple",
    "branch_data",
    "hom_branch_type",
    "is_surjective",
    "enumerate_tuples",
    "level_codes",
    "tuple_to_json",
    "tuple_from_json",
]


class TupleError(DomainError):
    pass


class BranchedTuple(Frozen):
    """handles: (a, b) pairs; punctures: (letter, sign) pairs, sign in
    {+1, -1}."""

    _fields = ("group", "genus", "handles", "punctures")

    def __init__(self, group, genus, handles, punctures):
        vars(self).update(group=group, genus=genus, handles=handles,
                          punctures=punctures)

    @property
    def n(self):
        return len(self.punctures)

    @cached_property
    def flat(self):
        """(letters slot by slot, puncture signs), two tuples made once."""
        words, signs = zip(*self.punctures) if self.punctures else ((), ())
        return (*chain(*self.handles), *words), signs

    def letters(self):
        return list(self.flat[0])

    def relation_product(self):
        G = self.group
        p = 0
        for a, b in self.handles:
            p = G.mul[p][G.commutator(a, b)]
        for w, _ in self.punctures:
            p = G.mul[p][w]
        return p

    def branch_class(self, j):
        """(class_id, sign) of puncture j."""
        G = self.group
        w, o = self.punctures[j]
        e = w if o == 1 else G.inv[w]
        return G.class_of[e], o

    def key(self):
        return (self.genus, self.handles, self.punctures)

    def __lt__(self, other):
        return self.key() < other.key()


class BranchData(Frozen):
    """counts: a sorted tuple of ((class_id, sign), multiplicity)."""

    _fields = ("counts",)

    def __init__(self, counts):
        vars(self).update(counts=counts)

    @staticmethod
    def from_dict(d):
        return BranchData(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self):
        return dict(self.counts)

    @property
    def cardinality(self):
        return sum(v for _, v in self.counts)

    def class_ids(self):
        return sorted({cid for (cid, _), _ in self.counts})


def make_tuple(G, g, handles, punctures):
    """Validate and build a BranchedTuple."""
    handles = tuple((int(a), int(b)) for a, b in handles)
    punctures = tuple((int(w), int(o)) for w, o in punctures)
    letters = chain(*handles, (w for w, _ in punctures))
    if any(not 0 <= x < G.order for x in letters):
        raise TupleError(f"tuple letter out of range 0..{G.order - 1}")
    if g < 0 or len(handles) != g:
        raise TupleError(f"genus {g} but {len(handles)} handle pairs")
    for w, o in punctures:
        if o not in (1, -1):
            raise TupleError(f"bad framing sign {o}")
        if w == 0:
            raise TupleError("identity letter on a puncture")
    t = BranchedTuple(G, g, handles, punctures)
    if t.relation_product() != 0:
        raise TupleError("surface relation violated")
    return t


def branch_data(t):
    d = {}
    for j in range(t.n):
        k = t.branch_class(j)
        d[k] = d.get(k, 0) + 1
    return BranchData.from_dict(d)


def hom_branch_type(G, class_ids, v):
    """Net branch vector [v] over the classes of C plus membership in N.

    [v](cbar) = v(cbar,+1) - v(cbar,-1); membership in N, the kernel of
    Z^{C//G} -> G_ab, is necessary for realizability by a closed
    connected cover.  A zero vector maps to zero, so it is in N without
    computing G_ab.
    """
    cids = sorted(set(class_ids))
    d = v.as_dict() if isinstance(v, BranchData) else dict(v)
    vec = [d.get((cid, 1), 0) - d.get((cid, -1), 0) for cid in cids]
    if not any(vec):
        return vec, True
    A, proj = abelianization(G)
    image = A.zero()
    for k, cid in zip(vec, cids):
        rep = proj(G.class_reps[cid])
        image = A.reduce(x + k * y for x, y in zip(image, rep))
    return vec, image == A.zero()


def is_surjective(t):
    return generates(t.group, set(t.letters()))


def _letters_for(G, class_id, sign):
    """Puncture letters w with w^sign in the class, sorted."""
    if sign == 1:
        return [x for x in range(1, G.order) if G.class_of[x] == class_id]
    return sorted(G.inv[x] for x in range(1, G.order) if G.class_of[x] == class_id)


def level_codes(G, g, v, surjective=True, budget=None):
    """(fastorbits._Codes, sorted int64 tuple codes) of every tuple of
    genus g with branch data v: the nodes of fastorbits.level_orbits'
    table when surjective, else of fastorbits.build_level, closed or
    punctured, expanded into one array
    and sorted in place, so that code order is key order.  BudgetError
    when the builder would walk more than budget prefixes or the level
    has more than budget tuples, raised before the level, or its tuple
    codes, are allocated.
    """
    # fastorbits imports this module
    from .fastorbits import build_level, level_orbits

    if surjective:
        table, _ = level_orbits(G, g, v, budget)
        codes, level = table.codes, table.level
    else:
        codes, level = build_level(G, g, v, budget)
    tuples = codes.expand(level, budget)
    tuples.sort()
    return codes, tuples


def enumerate_tuples(G, g, v, surjective=True, budget=None):
    """All BranchedTuples of genus g with branch data v, deterministic
    lexicographic order: level_codes, decoded.
    """
    codes, tuples = level_codes(G, g, v, surjective, budget)
    return codes.tuples(tuples)


def tuple_to_json(t):
    return {
        "g": t.genus,
        "handles": [list(h) for h in t.handles],
        "punctures": [list(p) for p in t.punctures],
    }


def tuple_from_json(G, obj):
    return make_tuple(G, obj["g"], obj.get("handles", []),
                      obj.get("punctures", []))

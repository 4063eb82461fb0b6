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

from dataclasses import dataclass

from .groups import FiniteGroup, generates

__all__ = [
    "BudgetError",
    "BranchedTuple",
    "BranchData",
    "make_tuple",
    "branch_data",
    "is_surjective",
    "enumerate_tuples",
    "connect_sum",
    "tuple_to_json",
    "tuple_from_json",
]


class TupleError(ValueError):
    pass


class BudgetError(RuntimeError):
    """A search or level outgrew its budget; the CLI reports it as exit
    2, kind "budget"."""


@dataclass(frozen=True)
class BranchedTuple:
    group: FiniteGroup
    genus: int
    handles: tuple  # of (a, b) pairs
    punctures: tuple  # of (letter, sign) pairs, sign in {+1, -1}

    @property
    def n(self):
        return len(self.punctures)

    def letters(self):
        out = []
        for a, b in self.handles:
            out.extend((a, b))
        out.extend(w for w, _ in self.punctures)
        return out

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


@dataclass(frozen=True)
class BranchData:
    counts: tuple  # sorted tuple of ((class_id, sign), multiplicity)

    @staticmethod
    def from_dict(d):
        return BranchData(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self):
        return dict(self.counts)

    @property
    def cardinality(self):
        return sum(v for _, v in self.counts)

    def get(self, class_id, sign):
        return dict(self.counts).get((class_id, sign), 0)

    def class_ids(self):
        return sorted({cid for (cid, _), _ in self.counts})

    def __le__(self, other):
        od = other.as_dict()
        return all(v <= od.get(k, 0) for k, v in self.counts)

    def strictly_less(self, other):
        """True when every component of other exceeds this one, on the
        union of supports."""
        sd, od = self.as_dict(), other.as_dict()
        keys = set(sd) | set(od)
        return all(sd.get(k, 0) < od.get(k, 0) for k in keys)


def make_tuple(G, g, handles, punctures, allowed_classes=None):
    """Validate and build a BranchedTuple.

    allowed_classes: optional set of class ids (the set C); every
    puncture's branch class must lie in it.  allowed_classes = () forces
    n = 0.
    """
    handles = tuple((int(a), int(b)) for a, b in handles)
    punctures = tuple((int(w), int(o)) for w, o in punctures)
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
    if allowed_classes is not None:
        allowed = set(allowed_classes)
        if not allowed and punctures:
            raise TupleError("empty branch class set forces n = 0")
        for j in range(len(punctures)):
            cid, _ = t.branch_class(j)
            if cid not in allowed:
                raise TupleError(f"puncture {j} branch class {cid} outside C")
    return t


def branch_data(t):
    d = {}
    for j in range(t.n):
        k = t.branch_class(j)
        d[k] = d.get(k, 0) + 1
    return BranchData.from_dict(d)


def is_surjective(t):
    return generates(t.group, set(t.letters()))


def connect_sum(t1, t2):
    if t1.group is not t2.group and t1.group != t2.group:
        raise TupleError("connect sum across different groups")
    return BranchedTuple(
        t1.group,
        t1.genus + t2.genus,
        t1.handles + t2.handles,
        t1.punctures + t2.punctures,
    )


def _multiset_permutations(items):
    """Distinct orderings of a list, lexicographic."""
    items = sorted(items)
    n = len(items)
    if n == 0:
        yield ()
        return
    a = list(items)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _letters_for(G, class_id, sign):
    """Puncture letters w with w^sign in the class, sorted."""
    if sign == 1:
        return [x for x in range(1, G.order) if G.class_of[x] == class_id]
    return sorted(G.inv[x] for x in range(1, G.order) if G.class_of[x] == class_id)


def enumerate_tuples(G, g, v, surjective=True, budget=None):
    """All BranchedTuples of genus g with branch data v, deterministic
    lexicographic order: fastorbits.build_level's nodes, closed or
    punctured, expanded into one tuple-code array, sorted in place and
    decoded.  BudgetError when the builder would walk more than budget
    prefixes or the level has more than budget tuples, raised before the
    level, or its tuples, are allocated.
    """
    from .fastorbits import build_level  # fastorbits imports this module

    codes, level = build_level(G, g, v, surjective, budget)
    tuples = codes.expand(level, budget)
    tuples.sort()
    return codes.tuples(tuples)


def tuple_to_json(t):
    return {
        "g": t.genus,
        "handles": [list(h) for h in t.handles],
        "punctures": [list(p) for p in t.punctures],
    }


def tuple_from_json(G, obj, allowed_classes=None):
    return make_tuple(
        G, obj["g"], obj.get("handles", []), obj.get("punctures", []),
        allowed_classes=allowed_classes,
    )

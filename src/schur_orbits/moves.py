"""Mapping class group moves on branched tuples and orbit computation.

Every move in the default catalog carries a standard geometric
realization (half-twist of adjacent branch points, Dehn twists along
handle curves, handle interchange, chain twist, boundary block twist,
basepoint point-push); each preserves the surface relation and the
branch data and is invertible within the catalog.

Each move kind is defined once, as a row of _MOVE_WORDS: straight-line
words over the letters of the site it acts on.  move_plan binds a row
to letter slots, and plan_evaluator runs the plan: on one tuple's
letters for apply_move, on numpy columns of many tuples for
fastorbits.  A new move is a new row there (plus a site in
_site_slots if it acts on a new kind of site) and an entry in
move_catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import BranchedTuple
from .groups import DomainError

__all__ = [
    "Move",
    "move_catalog",
    "MovePlan",
    "move_plan",
    "plan_evaluator",
    "apply_move",
    "canonicalize",
    "move_closure",
    "orbits",
    "OrbitTable",
    "induced_orbit_map",
]

MOVE_SET_TAG = "default-catalog-v1"

# One row per move kind: (site, words, signs).  The site names the
# letters a move with index i acts on: "punctures" w1, w2 = punctures i,
# i+1; "handle" a, b = handle i; "handles" a1, b1, a2, b2 = handles i,
# i+1; "boundary" a, b = the last handle and w1 = the first puncture;
# "each letter" s = every letter in turn.  words assigns, in order, new
# values to the site letters and to temporaries (any other name), as
# words over the letters before the move and the temporaries above; y'
# is the inverse of y, and x is the move's element (the point-push).  A
# puncture keeps its sign unless signs names the puncture it takes the
# sign from.
#
# The chain twist on adjacent handles (a1, b1, a2, b2) fixes the block
# relator [a1,b1][a2,b2] letter for letter, so it splices into the full
# surface relation at any genus; an automorphism fixing the boundary
# word of a compact surface group is induced by a homeomorphism fixing
# the boundary, which makes this a genuine mapping class of the
# two-handle subsurface.  On homology it sends b1 -> b1 + a1 - a2 and
# b2 -> b2 + a2 - a1, the transvection along the curve running through
# both handles.
_MOVE_WORDS = {
    "Braid": ("punctures", {"w1": "w1 w2 w1'", "w2": "w1"},
              {"w1": "w2", "w2": "w1"}),
    "BraidInv": ("punctures", {"w1": "w2", "w2": "w2' w1 w2"},
                 {"w1": "w2", "w2": "w1"}),
    "TwistA": ("handle", {"b": "b a"}, {}),
    "TwistAInv": ("handle", {"b": "b a'"}, {}),
    "TwistB": ("handle", {"a": "a b"}, {}),
    "TwistBInv": ("handle", {"a": "a b'"}, {}),
    "HandleSwap": ("handles", {"u": "a1 b1 a1' b1'", "a1": "u a2 u'",
                               "b1": "u b2 u'", "a2": "a1", "b2": "b1"}, {}),
    "ChainTwist": ("handles", {"a1": "a1 a2 a1 a2' a1'",
                               "b1": "a1 a2 a1' a2' b1 a1 a1 a2' a1'",
                               "a2": "a1 a2 a1'",
                               "b2": "b2 a2 a1'"}, {}),
    "ChainTwistInv": ("handles", {"a1": "a2' a1 a2",
                                  "b1": "a2' a1' a2 a1 b1 a1' a2",
                                  "a2": "a2' a1' a2 a1 a2",
                                  "b2": "b2 a2' a2' a1 a2"}, {}),
    "HandleBlockTwist": ("handle", {"u": "a b a' b'", "a": "u a u'",
                                    "b": "u b u'"}, {}),
    "BoundaryBlockTwist": ("boundary", {"v": "a b a' b' w1", "a": "v a v'",
                                        "b": "v b v'", "w1": "v w1 v'"}, {}),
    "GlobalConj": ("each letter", {"s": "x s x'"}, {}),
}


class MoveError(DomainError):
    pass


@dataclass(frozen=True)
class Move:
    kind: str
    index: int = 0
    element: int = 0
    note: str = ""


def move_catalog(G, g, n):
    """Default generating moves for the pointed mapping class action on
    genus-g, n-puncture tuples.

    The point-pushes are GlobalConj by each generator of G and its
    inverse, so the catalog conjugates by all of Inn(G), whatever the
    subgroup that a tuple's letters generate.  Braids and twists come
    with their *Inv kinds as well.  The orbit scan
    (fastorbits.orbit_scan) sweeps only the forward moves that span
    handles or punctures, over products of handle-move orbits;
    move_closure applies them all."""
    cat = []
    for j in range(n - 1):
        cat.append(Move("Braid", j, note="half-twist of branch points j, j+1"))
        cat.append(Move("BraidInv", j, note="inverse half-twist"))
    for i in range(g):
        cat.append(Move("TwistA", i, note="Dehn twist along the a-curve"))
        cat.append(Move("TwistAInv", i))
        cat.append(Move("TwistB", i, note="Dehn twist along the b-curve"))
        cat.append(Move("TwistBInv", i))
    for i in range(g - 1):
        cat.append(Move("HandleSwap", i, note="handle interchange"))
        cat.append(Move("ChainTwist", i,
                        note="Dehn twist along the chain curve through handles i, i+1"))
        cat.append(Move("ChainTwistInv", i))
    for i in range(g):
        cat.append(Move("HandleBlockTwist", i, note="twist along the handle boundary"))
    if g >= 1 and n >= 1:
        cat.append(Move("BoundaryBlockTwist",
                        note="twist along the last-handle-plus-first-puncture boundary"))
    for x in G.generators:
        cat.append(Move("GlobalConj", element=x, note="basepoint point-push"))
        cat.append(Move("GlobalConj", element=G.inv[x], note="basepoint point-push"))
    return cat


def _site_slots(site, i, g, n):
    """Letter name -> slot maps for one site of a genus-g, n-puncture
    tuple.  Slots 2k, 2k+1 hold handle k; slot 2g + j holds puncture j."""
    if site == "punctures":
        if not 0 <= i < n - 1:
            raise MoveError(f"braid index {i} out of range for n={n}")
        return [{"w1": 2 * g + i, "w2": 2 * g + i + 1}]
    if site == "handle":
        if not 0 <= i < g:
            raise MoveError(f"handle index {i} out of range for g={g}")
        return [{"a": 2 * i, "b": 2 * i + 1}]
    if site == "handles":
        if not 0 <= i < g - 1:
            raise MoveError(f"handle pair index {i} out of range for g={g}")
        return [{"a1": 2 * i, "b1": 2 * i + 1, "a2": 2 * i + 2, "b2": 2 * i + 3}]
    if site == "boundary":
        if g < 1 or n < 1:
            raise MoveError("needs a handle and a puncture")
        return [{"a": 2 * g - 2, "b": 2 * g - 1, "w1": 2 * g}]
    return [{"s": s} for s in range(2 * g + n)]


@dataclass(frozen=True)
class MovePlan:
    """A move bound to the letter slots of one level.

    Registers below `slots` hold the letters before the move; register
    `slots` holds the point-push element.  Step k (reg, srcs, table,
    word) sets register reg = slots + 1 + k: table[srcs[0]] or
    table[srcs[0] * q + srcs[1]] when the word reads at most two
    registers other than the point-push element, else the word's product
    (word entries r >= 0 read register r, ~r its inverse).
    """

    slots: int
    element: int
    steps: tuple
    writes: tuple  # (slot, register): the letter's new value
    signs: tuple  # (puncture, source puncture) for every moved sign


def _np_tables(G):
    """Flattened multiplication table and inverses of G as numpy arrays."""
    if "np" not in G.cache:
        G.cache["np"] = (np.array(G.mul, dtype=np.int64).ravel(),
                         np.array(G.inv, dtype=np.int64))
    return G.cache["np"]


def word_values(word, env, q, mulf, inv):
    """Product of a word over registers, with numpy arrays or ints as
    register values; mulf is the flattened multiplication table."""
    p = None
    for r in word:
        v = env[r] if r >= 0 else inv[env[~r]]
        p = v if p is None else mulf[p * q + v]
    return p


def move_plan(G, m, g, n):
    """Compile move m for genus-g, n-puncture tuples over G."""
    if m.kind not in _MOVE_WORDS:
        raise MoveError(f"unknown move kind {m.kind}")
    site, words, signs = _MOVE_WORDS[m.kind]
    q, L = G.order, 2 * g + n
    mulf, inv = _np_tables(G)
    nxt = L + 1
    steps, writes, moved = [], [], []
    for names in _site_slots(site, m.index, g, n):
        regs = dict(names, x=L)
        for name, text in words.items():
            word = tuple(~regs[tok[:-1]] if tok.endswith("'") else regs[tok]
                         for tok in text.split())
            if len(word) == 1 and word[0] >= 0:
                reg = word[0]  # a plain copy
            else:
                reg, nxt = nxt, nxt + 1
                srcs = sorted({r if r >= 0 else ~r for r in word} - {L})
                table = None
                if len(srcs) <= 2:
                    grid = np.indices((q,) * len(srcs)).reshape(len(srcs), -1)
                    env = dict(zip(srcs, grid))
                    env[L] = m.element
                    table = word_values(word, env, q, mulf, inv).tolist()
                steps.append((reg, tuple(srcs), table, word))
            if name in names:
                writes.append((names[name], reg))
            else:
                regs[name] = reg
        moved += [(names[d] - 2 * g, names[s] - 2 * g) for d, s in signs.items()]
    return MovePlan(L, m.element, tuple(steps), tuple(writes), tuple(moved))


def plan_evaluator(G, plan, columns):
    """The function (letters slot by slot, puncture signs) -> the same
    after plan's move.  With columns each is a numpy column of many
    tuples; without, one tuple's Python ints, and the letters stay ints."""
    q = G.order
    mulf, inv = (a if columns else a.tolist() for a in _np_tables(G))
    # each step as ((first source, second source or None), table, word)
    steps = [((*srcs, None, None)[:2],
              np.array(table) if columns and table is not None else table, word)
             for _, srcs, table, word in plan.steps]

    def f(letters, signs=()):
        env = [*letters, plan.element]
        for (a, b), table, word in steps:  # step k sets register len(env)
            if table is None:
                env.append(word_values(word, env, q, mulf, inv))
            elif b is None:
                env.append(table[env[a]])
            else:
                env.append(table[env[a] * q + env[b]])
        out, out_signs = list(letters), list(signs)
        for slot, reg in plan.writes:
            out[slot] = env[reg]
        for j, src in plan.signs:
            out_signs[j] = signs[src]
        return out, out_signs

    return f


def apply_move(m, t):
    """The tuple that move m makes of t: its plan run on t's letters."""
    G, g, n = t.group, t.genus, len(t.punctures)
    L, key = 2 * g, (m.kind, m.index, m.element, g, n)
    if key not in G.cache:
        plan = move_plan(G, m, g, n)
        G.cache[key] = (plan_evaluator(G, plan, columns=False),
                        any(slot < L for slot, _ in plan.writes),
                        any(slot >= L for slot, _ in plan.writes) or plan.signs)
    f, handles, punctures = G.cache[key]
    letters, signs = f(*t.flat)
    return BranchedTuple(
        G, g, tuple(zip(letters[0:L:2], letters[1:L:2])) if handles else t.handles,
        tuple(zip(letters[L:], signs)) if punctures else t.punctures)


def canonicalize(t):
    """The least of t's global conjugates: GlobalConj by every element."""
    return min(apply_move(Move("GlobalConj", element=x), t)
               for x in range(t.group.order))


@dataclass(frozen=True)
class OrbitTable:
    move_set: str
    representatives: tuple  # the least tuple of each orbit, sorted
    sizes: tuple  # orbit sizes (by input multiplicity), parallel to reps
    orbit_of: dict  # tuple key -> orbit index

    @property
    def num_orbits(self):
        return len(self.representatives)

    def orbit_id(self, t):
        i = self.orbit_of.get(t.key())
        if i is None:
            raise KeyError("tuple not in this orbit table")
        return i

    def orbit_ids(self, tuples):
        return [self.orbit_id(t) for t in tuples]

    def to_json(self):
        from .covers import tuple_to_json

        return {
            "move_set": self.move_set,
            "orbits": [
                {"rep": tuple_to_json(r), "size": s}
                for r, s in zip(self.representatives, self.sizes)
            ],
        }


def move_closure(t, catalog):
    """The catalog orbit of t, each tuple once, breadth first: t, then
    each depth in the order in which the sorted previous depth reaches
    it, move by move."""
    seen = {t.key()}
    frontier = [t]
    yield t
    while frontier:
        nxt = []
        for s in sorted(frontier, key=BranchedTuple.key):
            for m in catalog:
                u = apply_move(m, s)
                k = u.key()
                if k not in seen:
                    seen.add(k)
                    nxt.append(u)
                    yield u
        frontier = nxt


def orbits(tuples, catalog):
    """Partition a move-closed tuple list into catalog orbits.

    tuples may repeat; orbit sizes count input multiplicity.  Each
    orbit's representative is its least tuple, and the orbits come in
    representative order, so the result is independent of input order.
    The catalog's point-pushes conjugate by G.generators, so every orbit
    is closed under Inn(G) for any input, surjective or not, and its
    least tuple is also the least of its conjugates (canonicalize).
    The package runs every level through fastorbits; this hash-based
    engine is the tests' reference for it.
    """
    # built from the input's keys, so that the assignments below keep
    # these key objects and not those of the moved tuples
    orbit_of = dict.fromkeys(t.key() for t in tuples)
    reps = []
    for t in sorted(tuples, key=BranchedTuple.key):
        if orbit_of[t.key()] is not None:
            continue
        i = len(reps)
        reps.append(t)
        for s in move_closure(t, catalog):
            k = s.key()
            if k not in orbit_of:
                raise MoveError("input set is not closed under the catalog "
                                "(reached a tuple outside it)")
            orbit_of[k] = i
    sizes = [0] * len(reps)
    for t in tuples:
        sizes[orbit_of[t.key()]] += 1
    return OrbitTable(MOVE_SET_TAG, tuple(reps), tuple(sizes), orbit_of)


def induced_orbit_map(f, src, dst, exhaustive_members):
    """Orbit-level map induced by a tuple map f: src set -> dst set.

    exhaustive_members maps each source orbit id to the member tuples to
    check; every one of them must land in a single target orbit.  The
    images are looked up in dst in one orbit_ids call.
    """
    pairs = [(i, f(t)) for i in range(src.num_orbits)
             for t in exhaustive_members[i]]
    images = dst.orbit_ids([u for _, u in pairs])
    targets = {i: set() for i in range(src.num_orbits)}
    for (i, _), j in zip(pairs, images):
        targets[i].add(j)
    mapping = {}
    for i, ts in targets.items():
        if len(ts) != 1:
            raise MoveError(f"induced map ill-defined on source orbit {i}")
        mapping[i] = ts.pop()
    image = set(mapping.values())
    return {
        "map": mapping,
        "surjective": image == set(range(dst.num_orbits)),
        "injective": len(image) == len(mapping),
    }

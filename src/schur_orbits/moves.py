"""Mapping class group moves on branched tuples and orbit computation.

Every move in the default catalog carries a standard geometric
realization (half-twist of adjacent branch points, Dehn twists along
handle curves, chain twist, boundary block twist, basepoint
point-push); each preserves the surface relation and the branch data
and is a permutation of every level, so its inverse is a power of it
and the catalog lists no inverses.

Each move kind is defined once, as a row of _MOVE_WORDS: straight-line
words over the letters of the site it acts on.  move_plan binds a row to
letter slots, a plan whose steps are those words, and plan_evaluator
runs the plan, one word product per step: on one tuple's letters in
Python ints for apply_move, on numpy columns of many tuples for
fastorbits.  Only the columns load numpy; apply_move does not.  A new
move is a new row there (plus a site in _site_slots if it acts on a new
kind of site) and an entry in move_catalog.  A move's site is declared
only in _site_slots: fastorbits places each of its transition tables on
the node digits of one site's slots, and builds it from the move's plan
on a level of that site's own shape.
"""

from __future__ import annotations

from .covers import BranchedTuple
from .groups import DomainError
from .records import Frozen

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

# names the orbit relation, not the list: a move that the catalog's moves
# generate (an inverse, a product of twists) changes neither, nor a report
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
    "TwistA": ("handle", {"b": "b a"}, {}),
    "TwistB": ("handle", {"a": "a b"}, {}),
    "ChainTwist": ("handles", {"a1": "a1 a2 a1 a2' a1'",
                               "b1": "a1 a2 a1' a2' b1 a1 a1 a2' a1'",
                               "a2": "a1 a2 a1'",
                               "b2": "b2 a2 a1'"}, {}),
    "BoundaryBlockTwist": ("boundary", {"v": "a b a' b' w1", "a": "v a v'",
                                        "b": "v b v'", "w1": "v w1 v'"}, {}),
    "GlobalConj": ("each letter", {"s": "x s x'"}, {}),
}


class MoveError(DomainError):
    pass


class Move(Frozen):
    _fields = ("kind", "index", "element")

    def __init__(self, kind, index=0, element=0):
        vars(self).update(kind=kind, index=index, element=element)


def move_catalog(G, g, n):
    """One generating set of the pointed mapping class action on genus-g,
    n-puncture tuples, each move once: Braid on adjacent punctures, TwistA
    and TwistB on each handle, ChainTwist on adjacent handles,
    BoundaryBlockTwist, and GlobalConj by each generator of G up to
    inverse, but for a central one, which moves nothing; so it conjugates
    by all of Inn(G).  fastorbits.level_orbits, move_closure and orbits
    all run it as it is."""
    cat = [Move("Braid", j) for j in range(n - 1)]
    cat += [Move(kind, i) for i in range(g) for kind in ("TwistA", "TwistB")]
    cat += [Move("ChainTwist", i) for i in range(g - 1)]
    if g >= 1 and n >= 1:
        cat.append(Move("BoundaryBlockTwist"))
    conj = set()
    for x in G.generators:
        if x not in conj and G.class_of.count(G.class_of[x]) > 1:
            conj |= {x, G.inv[x]}
            cat.append(Move("GlobalConj", element=x))
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


class MovePlan(Frozen):
    """A move bound to the letter slots of one level.

    Registers below `slots` hold the letters before the move; register
    `slots` holds the point-push element.  Each of steps is a word whose
    product step k puts in register slots + 1 + k (word entries r >= 0
    read register r, ~r its inverse).  Each of writes is (slot,
    register): the letter's new value; each of signs is (puncture, source
    puncture), one for every moved sign.
    """

    _fields = ("slots", "element", "steps", "writes", "signs")

    def __init__(self, slots, element, steps, writes, signs):
        vars(self).update(slots=slots, element=element, steps=steps,
                          writes=writes, signs=signs)


def _np_tables(G):
    """Flattened multiplication table and inverses of G as numpy arrays."""
    if "np" not in G.cache:
        import numpy as np

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


def move_plan(m, g, n):
    """Compile move m for genus-g, n-puncture tuples."""
    if m.kind not in _MOVE_WORDS:
        raise MoveError(f"unknown move kind {m.kind}")
    site, words, signs = _MOVE_WORDS[m.kind]
    L = 2 * g + n
    steps, writes, moved = [], [], []
    for names in _site_slots(site, m.index, g, n):
        regs = dict(names, x=L)
        for name, text in words.items():
            word = tuple(~regs[tok[:-1]] if tok.endswith("'") else regs[tok]
                         for tok in text.split())
            if len(word) == 1 and word[0] >= 0:
                reg = word[0]  # a plain copy
            else:
                reg = L + 1 + len(steps)
                steps.append(word)
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
    if columns:
        mulf, inv = _np_tables(G)
    else:
        mulf, inv = [x for row in G.mul for x in row], G.inv

    def f(letters, signs=()):
        env = [*letters, plan.element]
        for word in plan.steps:  # step k sets register len(env)
            env.append(word_values(word, env, q, mulf, inv))
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
        plan = move_plan(m, g, n)
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


class OrbitTable(Frozen):
    """representatives: the least tuple of each orbit, sorted; sizes:
    the orbit sizes (by input multiplicity), parallel to them; orbit_of:
    tuple key -> orbit index."""

    _fields = ("move_set", "representatives", "sizes", "orbit_of")

    def __init__(self, move_set, representatives, sizes, orbit_of):
        vars(self).update(move_set=move_set, representatives=representatives,
                          sizes=sizes, orbit_of=orbit_of)

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

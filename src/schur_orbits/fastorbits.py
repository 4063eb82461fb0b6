"""Vectorized orbit scan for whole tuple levels, closed and punctured.

A level is a sorted int64 array of tuple codes (_Codes): 2g handle
digits of radix q = |G|, then one digit per puncture, the rank of its
(letter, sign) pair in the level's sorted alphabet, so that code order
is BranchedTuple.key order.  A closed level is filtered from its whole
q^{2g} code space; a punctured level is built slot order by slot order
from a mixed radix over the handle letters and every slot pool but the
last, the last letter being solved from the relation.  Both filter
FILTER_CHUNK candidates at a time.  Every catalog move runs as numpy
gathers compiled from the same move plans as moves.apply_move, puncture
signs included, and one frontier sweep (_sweep) partitions the level
into orbits, decoding each frontier FILTER_CHUNK codes at a time.

A closed level indexes its visited flags and orbit ids by code: 5 B per
code of the q^{2g} code space, plus 8 B per level tuple and per code of
the current and the next frontier, besides chunk-sized temporaries.  A
punctured level indexes them by level position, found with
np.searchsorted, which also checks that every move stays in the level:
21 B per tuple plus the frontiers.  On a 2-CPU Intel Xeon VM (Python
3.11, numpy 2.4) the A4 genus-3 level (742,560 tuples among 12^6 codes)
closes in 1.0-1.3 s (~1.5 us/tuple).  Punctured levels, built and
closed, median of 5 in-process runs: S4 g=0 "8 transpositions"
(131,040 tuples) 0.84 s, 6.4 us/tuple, more than half of it in
np.searchsorted; A4 g=0 "3 c, 3 c -" (20,400) 0.12 s, 6.0 us/tuple;
S3 g=1 "6 transpositions" (8,736 in 6 orbits) 0.15 s, 17 us/tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .covers import (
    BranchedTuple,
    BudgetError,
    _letters_for,
    _multiset_permutations,
    candidate_count,
)
from .groups import closure
from .moves import (
    MOVE_SET_TAG,
    MoveError,
    OrbitTable,
    _np_tables,
    move_plan,
    word_values,
)

__all__ = ["closed_orbit_scan", "punctured_orbit_scan", "punctured_level",
           "FastOrbitTable", "VEC_STATE_CAP"]

VEC_STATE_CAP = 1 << 28
FILTER_CHUNK = 1 << 18  # codes decoded at a time by the filter and sweep


def _digits(codes, radices):
    """Mixed-radix digit columns of codes, most significant first."""
    cols = []
    rest = codes
    for radix in reversed(radices):
        rest, digit = np.divmod(rest, radix)
        cols.append(digit)
    cols.reverse()
    return cols


class _Codes:
    """int64 codes of the genus-g, n-puncture tuples whose punctures take
    (letter, sign) pairs from alphabet: 2g handle digits of radix q =
    |G|, then one digit per puncture, the rank of its pair in the sorted
    alphabet.  Code order is BranchedTuple.key order."""

    def __init__(self, G, g, n=0, alphabet=()):
        self.group, self.genus, self.n = G, g, n
        self.alphabet = tuple(sorted(alphabet))
        q, r = G.order, len(self.alphabet)
        self.size = q ** (2 * g) * r ** n
        if self.size >= 1 << 63:
            raise BudgetError(f"code space of {q}^{2 * g} handle codes times "
                              f"{r}^{n} puncture codes overflows int64")
        self.radices = [q] * (2 * g) + [r] * n
        self.letter = np.array([w for w, _ in self.alphabet], dtype=np.int64)
        self.sign = np.array([o for _, o in self.alphabet], dtype=np.int64)
        # rank of (w, o) at (o > 0) * q + w; -1 outside the alphabet
        self.rank = np.full(2 * q, -1, dtype=np.int64)
        self.rank[(self.sign > 0) * q + self.letter] = np.arange(r)

    def decode(self, codes):
        """(letter columns, sign columns) of codes."""
        L = 2 * self.genus
        digits = _digits(codes, self.radices)
        ranks = digits[L:]
        return (digits[:L] + [self.letter[k] for k in ranks],
                [self.sign[k] for k in ranks])

    def encode(self, cols, signs):
        """Codes of letter and sign columns; MoveError when a puncture's
        (letter, sign) pair lies outside the alphabet."""
        q, L = self.group.order, 2 * self.genus
        code = None
        for c in cols[:L]:
            code = c if code is None else code * q + c
        for w, o in zip(cols[L:], signs):
            k = self.rank[(o > 0) * q + w]
            if (k < 0).any():
                raise MoveError("a move left the level's (letter, sign) "
                                "alphabet (catalog bug)")
            code = k if code is None else code * len(self.alphabet) + k
        return code

    def code_of(self, t):
        """The code of one tuple; KeyError when it has another shape or a
        puncture outside the alphabet."""
        if t.genus != self.genus or len(t.punctures) != self.n:
            raise KeyError("tuple not in this orbit table")
        q = self.group.order
        code = 0
        for a, b in t.handles:
            code = (code * q + a) * q + b
        for w, o in t.punctures:
            k = int(self.rank[(o > 0) * q + w])
            if k < 0:
                raise KeyError("tuple not in this orbit table")
            code = code * len(self.alphabet) + k
        return code

    def tuples(self, codes):
        """The BranchedTuples of codes, in order."""
        cols, signs = self.decode(np.asarray(codes, dtype=np.int64))
        G, g, L = self.group, self.genus, 2 * self.genus
        out = []
        for row in zip(*[c.tolist() for c in cols + signs]):
            handles = tuple(zip(row[0:L:2], row[1:L:2]))
            punctures = tuple(zip(row[L:L + self.n], row[L + self.n:]))
            out.append(BranchedTuple(G, g, handles, punctures))
        return out


@dataclass(frozen=True, eq=False)
class FastOrbitTable(OrbitTable):
    """OrbitTable of a level held as codes; orbit_of stays empty.  A
    closed level's orbit ids are indexed by code (-1 off the level) and
    level is None; a punctured level's ids are parallel to level, its
    sorted codes."""

    codes: _Codes
    ids: np.ndarray
    level: np.ndarray | None = None

    def orbit_id(self, t):
        code = self.codes.code_of(t)
        if self.level is not None:
            pos = int(np.searchsorted(self.level, code))
            if pos == self.level.size or self.level[pos] != code:
                raise KeyError("tuple not in this orbit table")
            code = pos
        i = int(self.ids[code])
        if i < 0:
            raise KeyError("tuple not in this orbit table")
        return i

    def members(self):
        """Orbit id -> the orbit's tuples in key order (punctured levels)."""
        out = {i: [] for i in range(self.num_orbits)}
        for t, i in zip(self.codes.tuples(self.level), self.ids.tolist()):
            out[i].append(t)
        return out


def _applier(G, plan):
    """(cols, signs) -> (cols, signs) function running one move plan on
    numpy columns: cols holds the letters slot by slot, signs the
    puncture signs."""
    q = G.order
    mulf, inv = _np_tables(G)
    steps = [(reg, srcs, None if table is None else np.array(table), word)
             for reg, srcs, table, word in plan.steps]

    def f(cols, signs=()):
        env = dict(enumerate(cols))
        env[plan.slots] = plan.element
        for reg, srcs, table, word in steps:
            if table is None:
                env[reg] = word_values(word, env, q, mulf, inv)
            elif len(srcs) == 1:
                env[reg] = table[env[srcs[0]]]
            else:
                env[reg] = table[env[srcs[0]] * q + env[srcs[1]]]
        out = list(cols)
        for slot, reg in plan.writes:
            out[slot] = env[reg]
        out_signs = list(signs)
        for j, src in plan.signs:
            out_signs[j] = signs[src]
        return out, out_signs

    return f


def _surjective_mask(G, cols, memo):
    """Boolean mask: do the letters of each state generate G?  Each
    state's letter set is a bit mask of one uint64 word per 64 elements;
    memo maps a mask's bytes to its answer and is shared across calls."""
    q = G.order
    words = -(-q // 64)
    masks = np.zeros((cols[0].size, words), dtype=np.uint64)
    rows = np.arange(cols[0].size)
    for c in cols:
        masks[rows, c >> 6] |= np.uint64(1) << (c & 63).astype(np.uint64)
    # one word sorts much faster as an integer than as raw bytes: with
    # byte keys for every q, the closed-scan benchmark's wall_s median
    # rose from 2.29 to 2.61 s (12 interleaved pairs, 2-CPU Xeon VM)
    keys = (masks[:, 0] if words == 1
            else masks.view(np.dtype((np.void, 8 * words))).ravel())
    uniq, inverse = np.unique(keys, return_inverse=True)
    ok = np.empty(uniq.shape, dtype=bool)
    for idx, key in enumerate(uniq):
        key = key.tobytes()
        if key not in memo:
            mval = sum(int(w) << 64 * k for k, w in
                       enumerate(np.frombuffer(key, dtype=np.uint64)))
            elems = [e for e in range(q) if mval >> e & 1]
            memo[key] = len(closure(G, elems)) == q
        ok[idx] = memo[key]
    return ok[inverse]


def _relator(L):
    """Register word of the handle commutators [a_1,b_1]...[a_g,b_g]."""
    return [r for i in range(0, L, 2) for r in (i, i + 1, ~i, ~(i + 1))]


def _closed_level(G, g, surjective):
    """Sorted codes of the closed genus-g tuples (surjective ones only if
    asked), filtered FILTER_CHUNK codes at a time."""
    q = G.order
    L = 2 * g
    total = q ** L
    mulf, inv = _np_tables(G)
    relator = _relator(L)
    memo = {}
    parts = []
    for start in range(0, total, FILTER_CHUNK):
        codes = np.arange(start, min(start + FILTER_CHUNK, total),
                          dtype=np.int64)
        cols = _digits(codes, [q] * L)
        keep = word_values(relator, dict(enumerate(cols)), q, mulf, inv) == 0
        if surjective:
            keep[keep] = _surjective_mask(G, [c[keep] for c in cols], memo)
        parts.append(codes[keep])
    return np.concatenate(parts)


def punctured_level(G, g, v, surjective=True, budget=None):
    """(_Codes, sorted codes) of the genus-g tuples with branch data v,
    n >= 1 punctures (surjective ones only if asked).

    Each distinct order of the slot kinds is one block of candidates, a
    mixed radix over the handle letters and the pools of all slots but
    the last; the last letter is solved from the relation and kept when
    it lies in its pool.  Candidates are filtered FILTER_CHUNK at a
    time.  BudgetError, before anything is allocated, when the
    candidate count exceeds budget or the code space overflows int64.
    """
    if budget is not None and candidate_count(G, g, v) > budget:
        raise BudgetError(f"enumeration budget {budget} exhausted")
    pools = {kind: np.array(_letters_for(G, *kind), dtype=np.int64)
             for kind, _ in v.counts}
    slots = [kind for kind, k in v.counts for _ in range(k)]
    codes = _Codes(G, g, len(slots), [(w, sign) for (_, sign), pool in
                                      pools.items() for w in pool.tolist()])
    q, L = G.order, 2 * g
    mulf, inv = _np_tables(G)
    word = _relator(L) + list(range(L, L + len(slots) - 1))
    memo = {}
    parts = []
    for order in _multiset_permutations(slots):
        radices = [q] * L + [pools[kind].size for kind in order[:-1]]
        in_last = np.zeros(q, dtype=bool)
        in_last[pools[order[-1]]] = True
        signs = [sign for _, sign in order]
        total = prod(radices)
        for start in range(0, total, FILTER_CHUNK):
            idx = np.arange(start, min(start + FILTER_CHUNK, total),
                            dtype=np.int64)
            digits = _digits(idx, radices)
            cols = digits[:L] + [pools[kind][d]
                                 for kind, d in zip(order, digits[L:])]
            p = (word_values(word, dict(enumerate(cols)), q, mulf, inv)
                 if word else np.zeros_like(idx))
            last = inv[p]
            keep = in_last[last]
            cols = [c[keep] for c in cols] + [last[keep]]
            if surjective and cols[0].size:
                ok = _surjective_mask(G, cols, memo)
                cols = [c[ok] for c in cols]
            parts.append(codes.encode(
                cols, [np.full(cols[0].size, s) for s in signs]))
    level = np.sort(np.concatenate(parts)) if parts else np.zeros(0, np.int64)
    return codes, level


def _next_unvisited(seats, visited, pos):
    """Index of the first level position at or after pos whose seat is
    not yet visited (seats.size if none), searched in blocks that double
    in size."""
    step = 64
    while pos < seats.size:
        block = visited[seats[pos:pos + step]]
        if not block.all():
            return pos + int(block.argmin())
        pos += block.size
        step *= 2
    return pos


def _positions(level, codes):
    """Level positions of codes; MoveError when one is off the level."""
    pos = np.searchsorted(level, codes)
    np.minimum(pos, level.size - 1, out=pos)
    if not (level[pos] == codes).all():
        raise MoveError("level is not move-closed (catalog/filter bug)")
    return pos


def _sweep(codes, level, appliers, dense):
    """Partition a sorted, move-closed level into orbits.

    Each orbit is seeded at the least level code outside the orbits
    before it and grown breadth first, every move applied to whole
    frontier pieces.  With dense, visited flags and orbit ids are
    indexed by code over the whole code space; otherwise by level
    position.  Returns (seed codes, orbit sizes, orbit ids).
    """
    n_tuples = int(level.size)
    if dense:
        visited = np.zeros(codes.size, dtype=bool)
        seats = level  # where each level position's flag sits
    else:
        visited = np.zeros(n_tuples, dtype=bool)
        seats = np.arange(n_tuples)
    ids = np.full(visited.size, -1, dtype=np.int32)
    seeds = []
    sizes = []
    pos = _next_unvisited(seats, visited, 0)
    while pos < n_tuples:
        seed = int(seats[pos])
        oid = len(seeds)
        visited[seed] = True
        ids[seed] = oid
        frontier = np.array([seed], dtype=np.int64)
        size = 1
        while frontier.size:
            new_parts = []
            for start in range(0, frontier.size, FILTER_CHUNK):
                piece = frontier[start:start + FILTER_CHUNK]
                cols, signs = codes.decode(piece if dense else level[piece])
                for f in appliers:
                    enc = codes.encode(*f(cols, signs))
                    if not dense:
                        enc = _positions(level, enc)
                    enc = enc[~visited[enc]]
                    if enc.size:
                        visited[enc] = True
                        ids[enc] = oid
                        new_parts.append(enc)
            # No code repeats, so nothing needs deduplicating: each move
            # acts on the level as a bijection, so it maps the distinct
            # codes of a frontier piece to distinct codes, and each part
            # skips the codes that the parts before it marked visited.
            frontier = (np.concatenate(new_parts) if new_parts
                        else np.array([], dtype=np.int64))
            size += int(frontier.size)
        seeds.append(int(level[pos]))
        sizes.append(size)
        pos = _next_unvisited(seats, visited, pos + 1)
    # the level must be move-closed (everything visited is in the level),
    # and no code may be counted twice (every move is a bijection)
    if not int(visited.sum()) == sum(sizes) == n_tuples:
        raise MoveError("level is not move-closed (catalog/filter bug)")
    # Each seed is the least level code outside the earlier orbits, and
    # its orbit stays in the level, so the seed is the orbit's least code
    # and the orbits are already in representative order.  The orbit is
    # closed under conjugation, so the seed is its own canonical form.
    return seeds, sizes, ids


def closed_orbit_scan(G, g, catalog, surjective=True, cap=VEC_STATE_CAP):
    """Partition the whole closed genus-g level into catalog orbits.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    q = G.order
    total = q ** (2 * g)
    if total > cap:
        raise BudgetError(f"closed level of {total} states exceeds cap {cap}")
    codes = _Codes(G, g)
    if g == 0:
        t = BranchedTuple(G, 0, (), ())
        n_tuples = 1 if (not surjective or q == 1) else 0
        reps = (t,) if n_tuples else ()
        ids = np.zeros(1, dtype=np.int32) if n_tuples else -np.ones(1, np.int32)
        return FastOrbitTable(MOVE_SET_TAG, reps, (1,) * n_tuples, {}, codes,
                              ids), n_tuples

    level = _closed_level(G, g, surjective)
    appliers = [_applier(G, move_plan(G, m, g, 0)) for m in catalog]
    seeds, sizes, ids = _sweep(codes, level, appliers, dense=True)
    table = FastOrbitTable(MOVE_SET_TAG, tuple(codes.tuples(seeds)),
                           tuple(sizes), {}, codes, ids)
    return table, int(level.size)


def punctured_orbit_scan(G, g, v, catalog, budget=None):
    """Partition the surjective genus-g level with branch data v (n >= 1
    punctures) into catalog orbits; budget caps the candidate count as
    in covers.enumerate_tuples.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    codes, level = punctured_level(G, g, v, True, budget)
    appliers = [_applier(G, move_plan(G, m, g, codes.n)) for m in catalog]
    seeds, sizes, ids = _sweep(codes, level, appliers, dense=False)
    table = FastOrbitTable(MOVE_SET_TAG, tuple(codes.tuples(seeds)),
                           tuple(sizes), {}, codes, ids, level)
    return table, int(level.size)

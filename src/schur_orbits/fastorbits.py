"""Vectorized orbit scan for closed (punctureless) tuple levels.

Genus-g closed levels over a group of order q hold q^{2g} raw words, too
many for the hash-based breadth-first search once 2g gets large.  This
engine encodes a whole level as integer codes, filters the code space
FILTER_CHUNK codes at a time down to the sorted level, applies every
catalog move as numpy gathers compiled from the same move plans as
moves.apply_move, and sweeps orbits with a boolean visited array,
decoding each frontier FILTER_CHUNK codes at a time.  Memory is 5 B per
code (visited 1 B, orbit id 4 B) plus 8 B per level tuple and per code
of the current and the next frontier, besides chunk-sized temporaries.
On a 2-CPU Intel Xeon VM the A4 genus-3 level (742,560 tuples among 12^6
codes) closes in 1.0-1.3 s over five runs.  Only closed tuples are
handled; punctured levels stay small in practice and use the generic
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import BranchedTuple, BudgetError
from .groups import FiniteGroup, closure
from .moves import (
    MOVE_SET_TAG,
    MoveError,
    OrbitTable,
    _np_tables,
    move_plan,
    word_values,
)

__all__ = ["closed_orbit_scan", "FastOrbitTable", "VEC_STATE_CAP"]

VEC_STATE_CAP = 1 << 28
FILTER_CHUNK = 1 << 18  # codes decoded at a time by the filter and sweep


@dataclass(frozen=True, eq=False)
class FastOrbitTable(OrbitTable):
    """OrbitTable of a closed level whose orbit ids are looked up by
    tuple code, (...((a_1 q + b_1) q + a_2) ...) q + b_g, in the array
    ids (-1 off the level); orbit_of stays empty."""

    group: FiniteGroup
    genus: int
    ids: np.ndarray

    def orbit_id(self, t):
        if t.genus != self.genus or t.punctures:
            raise KeyError("tuple not in this orbit table")
        q = self.group.order
        code = 0
        for a, b in t.handles:
            code = (code * q + a) * q + b
        i = int(self.ids[code])
        if i < 0:
            raise KeyError("tuple not in this orbit table")
        return i


def _decode(codes, q, L):
    cols = []
    rest = codes
    for _ in range(L):
        rest, digit = np.divmod(rest, q)
        cols.append(digit)
    cols.reverse()
    return cols


def _encode(cols, q):
    code = cols[0]
    for c in cols[1:]:
        code = code * q + c
    return code


def _applier(G, plan):
    """cols -> cols function running one move plan on numpy columns."""
    q = G.order
    mulf, inv = _np_tables(G)
    steps = [(reg, srcs, None if table is None else np.array(table), word)
             for reg, srcs, table, word in plan.steps]

    def f(cols):
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
        return out

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


def _closed_level(G, g, surjective):
    """Sorted codes of the closed genus-g tuples (surjective ones only if
    asked), filtered FILTER_CHUNK codes at a time."""
    q = G.order
    L = 2 * g
    total = q ** L
    mulf, inv = _np_tables(G)
    # relation: the product of the handle commutators is the identity
    relator = [r for i in range(0, L, 2) for r in (i, i + 1, ~i, ~(i + 1))]
    memo = {}
    parts = []
    for start in range(0, total, FILTER_CHUNK):
        codes = np.arange(start, min(start + FILTER_CHUNK, total),
                          dtype=np.int64)
        cols = _decode(codes, q, L)
        keep = word_values(relator, dict(enumerate(cols)), q, mulf, inv) == 0
        if surjective:
            keep[keep] = _surjective_mask(G, [c[keep] for c in cols], memo)
        parts.append(codes[keep])
    return np.concatenate(parts)


def _next_unvisited(level, visited, pos):
    """Index of the first level code at or after pos not yet visited
    (level.size if none), searched in blocks that double in size."""
    step = 64
    while pos < level.size:
        block = visited[level[pos:pos + step]]
        if not block.all():
            return pos + int(block.argmin())
        pos += block.size
        step *= 2
    return pos


def closed_orbit_scan(G, g, catalog, surjective=True, cap=VEC_STATE_CAP):
    """Partition the whole closed genus-g level into catalog orbits.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    q = G.order
    L = 2 * g
    total = q ** L
    if total > cap:
        raise BudgetError(f"closed level of {total} states exceeds cap {cap}")
    if g == 0:
        t = BranchedTuple(G, 0, (), ())
        n_tuples = 1 if (not surjective or q == 1) else 0
        reps = (t,) if n_tuples else ()
        ids = np.zeros(1, dtype=np.int32) if n_tuples else -np.ones(1, np.int32)
        return FastOrbitTable(MOVE_SET_TAG, reps, (1,) * n_tuples, {}, G, 0,
                              ids), n_tuples

    level = _closed_level(G, g, surjective)
    n_tuples = int(level.size)
    appliers = [_applier(G, move_plan(G, m, g, 0)) for m in catalog]
    visited = np.zeros(total, dtype=bool)
    orbit_id = np.full(total, -1, dtype=np.int32)
    seeds = []
    sizes = []
    pos = _next_unvisited(level, visited, 0)
    while pos < n_tuples:
        seed = int(level[pos])
        oid = len(seeds)
        visited[seed] = True
        orbit_id[seed] = oid
        frontier = np.array([seed], dtype=np.int64)
        size = 1
        while frontier.size:
            new_parts = []
            for start in range(0, frontier.size, FILTER_CHUNK):
                fcols = _decode(frontier[start:start + FILTER_CHUNK], q, L)
                for f in appliers:
                    enc = _encode(f(fcols), q)
                    enc = enc[~visited[enc]]
                    if enc.size:
                        visited[enc] = True
                        orbit_id[enc] = oid
                        new_parts.append(enc)
            # No code repeats, so nothing needs deduplicating: each move
            # acts on the level as a bijection, so it maps the distinct
            # codes of a frontier piece to distinct codes, and each part
            # skips the codes that the parts before it marked visited.
            frontier = (np.concatenate(new_parts) if new_parts
                        else np.array([], dtype=np.int64))
            size += int(frontier.size)
        seeds.append(seed)
        sizes.append(size)
        pos = _next_unvisited(level, visited, pos + 1)
    # the level must be move-closed (everything visited is in the level),
    # and no code may be counted twice (every move is a bijection)
    if not int(visited.sum()) == sum(sizes) == n_tuples:
        raise MoveError("closed level is not move-closed (catalog/filter bug)")
    # Each seed is the least level code outside the earlier orbits, and
    # its orbit stays in the level, so the seed is the orbit's least code
    # and the orbits are already in representative order.  The orbit is
    # closed under conjugation, so the seed is its own canonical form.
    reps = []
    for seed in seeds:
        digits = []
        rest = seed
        for _ in range(L):
            digits.append(rest % q)
            rest //= q
        digits.reverse()
        handles = tuple((digits[2 * k], digits[2 * k + 1]) for k in range(g))
        reps.append(BranchedTuple(G, g, handles, ()))
    table = FastOrbitTable(MOVE_SET_TAG, tuple(reps), tuple(sizes), {}, G, g,
                           orbit_id)
    return table, n_tuples

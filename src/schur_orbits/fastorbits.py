"""Vectorized orbit scan for whole tuple levels, closed and punctured.

A level is a sorted int64 array of tuple codes (_Codes): 2g handle
digits of radix q = |G|, then one digit per puncture, the rank of its
(letter, sign) pair in the level's sorted alphabet, so that code order
is BranchedTuple.key order.  One builder (build_level) makes every
level, a closed level being the one with no punctures.  Each distinct
order of the puncture kinds is one block of candidates, a mixed radix
over the handle letters and every slot pool but the last, the last
letter being solved from the relation.  A closed level of genus g >= 1
is solved for its last handle the same way: each of its q^{2(g-1)}
handle prefixes is followed by the commutator fibre over the inverse of
the prefix's commutator product.  Candidates are filtered, and closed
levels expanded, about FILTER_CHUNK codes at a time.  The catalog's
forward moves (_forward_moves: its inverse and repeated moves add
nothing to a closure) run as numpy gathers compiled from the same move
plans as moves.apply_move, puncture signs included, each re-encoding
only the slots it writes; one frontier sweep (_sweep) partitions the
level into orbits, decoding each frontier FILTER_CHUNK codes at a time.
orbit_scan is builder, moves and sweep for every level.

A closed level indexes its visited flags and orbit ids by code: 5 B per
code of the q^{2g} code space, plus 8 B per level tuple and per code of
the current and the next frontier, besides chunk-sized temporaries; its
code space is capped at VEC_STATE_CAP.  A punctured level indexes them
by level position, found with np.searchsorted, which also checks that
every move stays in the level: 21 B per tuple plus the frontiers.  On a
2-CPU Intel Xeon VM (Python 3.11, numpy 2.4), median of 7 in-process
runs, the A4 genus-3 level (742,560 tuples among 12^6 codes) builds in
0.036 s and closes in 0.35 s, 0.39 s in all (0.5 us/tuple); filtering
all 12^6 codes and applying all 25 catalog moves took 0.54 + 0.56 s.
Punctured levels, built and closed, median of 5 in-process runs: S4 g=0
"8 transpositions" (131,040 tuples) 0.39 s, 3.0 us/tuple, more than
half of it in np.searchsorted; A4 g=0 "3 c, 3 c -" (20,400) 0.053 s,
2.6 us/tuple; S3 g=1 "6 transpositions" (8,736 in 6 orbits) 0.040 s,
4.6 us/tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .covers import (
    BranchData,
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

__all__ = ["orbit_scan", "closed_orbit_scan", "build_level", "FastOrbitTable",
           "VEC_STATE_CAP"]

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

    def __init__(self, G, g, n, alphabet):
        self.group, self.genus, self.n = G, g, n
        self.alphabet = tuple(sorted(alphabet))
        q, r = G.order, len(self.alphabet)
        self.size = q ** (2 * g) * r ** n
        if self.size >= 1 << 63:
            raise BudgetError(f"code space of {q}^{2 * g} handle codes times "
                              f"{r}^{n} puncture codes overflows int64")
        self.radices = [q] * (2 * g) + [r] * n
        # the place value of each slot's digit
        self.weights = [prod(self.radices[k + 1:])
                        for k in range(len(self.radices))]
        self.letter = np.array([w for w, _ in self.alphabet], dtype=np.int64)
        self.sign = np.array([o for _, o in self.alphabet], dtype=np.int64)
        # rank of (w, o) at (o > 0) * q + w; -1 outside the alphabet
        self.rank = np.full(2 * q, -1, dtype=np.int64)
        self.rank[(self.sign > 0) * q + self.letter] = np.arange(r)

    def decode(self, codes):
        """(digit columns, letter columns, sign columns) of codes."""
        L = 2 * self.genus
        digits = _digits(codes, self.radices)
        ranks = digits[L:]
        return (digits, digits[:L] + [self.letter[k] for k in ranks],
                [self.sign[k] for k in ranks])

    def _ranks(self, w, o):
        """Alphabet ranks of the (letter, sign) pairs of a puncture
        column; MoveError when one lies outside the alphabet."""
        k = self.rank[(o > 0) * self.group.order + w]
        if (k < 0).any():
            raise MoveError("a move left the level's (letter, sign) "
                            "alphabet (catalog bug)")
        return k

    def encode(self, cols, signs, size):
        """Codes of size states given as letter and sign columns (none
        at all on the genus-0 closed level); MoveError when a puncture's
        (letter, sign) pair lies outside the alphabet."""
        q, L = self.group.order, 2 * self.genus
        code = np.zeros(size, dtype=np.int64)
        for c in cols[:L]:
            code *= q
            code += c
        for w, o in zip(cols[L:], signs):
            code *= len(self.alphabet)
            code += self._ranks(w, o)
        return code

    def recode(self, code, digits, cols, signs, slots):
        """Codes of states given as letter and sign columns that agree,
        outside slots, with the states of code, whose digit columns are
        digits: code plus (new - old digit) * place value over slots.
        Only the punctures in slots are ranked; MoveError when one of
        them lies outside the alphabet."""
        L = 2 * self.genus
        code = code.copy()
        for s in slots:
            new = cols[s] if s < L else self._ranks(cols[s], signs[s - L])
            code += (new - digits[s]) * self.weights[s]
        return code

    def code_of(self, t):
        """The code of one tuple; KeyError when it has another shape, a
        letter outside 0..|G|-1 or a puncture outside the alphabet."""
        q = self.group.order
        if (t.genus != self.genus or len(t.punctures) != self.n
                or not all(0 <= x < q for x in t.letters())
                or not all(o in (1, -1) for _, o in t.punctures)):
            raise KeyError("tuple not in this orbit table")
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
        codes = np.asarray(codes, dtype=np.int64)
        _, cols, signs = self.decode(codes)
        G, g, L = self.group, self.genus, 2 * self.genus
        out = []
        # the codes themselves count the rows when there are no columns
        for _, *row in zip(codes.tolist(), *[c.tolist() for c in cols + signs]):
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


def _surjective_mask(G, cols, size, memo):
    """Boolean mask: do the letters of each of size states generate G?
    Each state's letter set is a bit mask of one uint64 word per 64
    elements; memo maps a mask's bytes to its answer and is shared across
    calls."""
    q = G.order
    words = -(-q // 64)
    masks = np.zeros((size, words), dtype=np.uint64)
    rows = np.arange(size)
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
    """Sorted codes of the genus-g closed level, g >= 1: every handle
    prefix p (the first g - 1 handles) followed by each pair of the
    commutator fibre over the inverse of p's commutator product."""
    q = G.order
    mulf, inv = _np_tables(G)
    # the pair codes a * q + b grouped by their commutator [a, b] = c,
    # pairs[offsets[c]:offsets[c + 1]], ascending within each group
    # because the sort is stable
    a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
    comm = word_values(_relator(2), {0: a, 1: b}, q, mulf, inv)
    pairs = np.argsort(comm, kind="stable")
    offsets = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(np.bincount(comm, minlength=q), out=offsets[1:])
    # commutator product of every prefix in code order, handle by handle
    hprod = np.zeros(1, dtype=np.int64)
    for _ in range(g - 1):
        hprod = mulf[(hprod * q)[:, None] + comm].ravel()
    first = offsets[inv[hprod]]  # where each prefix's fibre starts
    counts = offsets[inv[hprod] + 1] - first
    del hprod
    ends = np.cumsum(counts)
    starts = ends - counts  # each prefix's first row among all rows
    # prefix blocks of about FILTER_CHUNK codes each (more only when one
    # fibre is larger), cut where the running row count passes a
    # multiple of FILTER_CHUNK; the identity prefix has a row, so no
    # block is empty
    cuts = np.searchsorted(ends, np.arange(FILTER_CHUNK, int(ends[-1]),
                                           FILTER_CHUNK), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [counts.size]))).tolist()
    memo = {}
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cnt = counts[lo:hi]
        base = int(starts[lo])
        # row k of the block is entry k - (the block's rows before its
        # prefix) of its prefix's fibre, so the codes come out ascending
        at = np.repeat(first[lo:hi] - (starts[lo:hi] - base), cnt)
        at += np.arange(int(ends[hi - 1]) - base)
        prefix = np.arange(lo, hi, dtype=np.int64)
        code = np.repeat(prefix * (q * q), cnt)
        code += pairs[at]
        if surjective:
            # a prefix whose letters generate G makes all of its rows
            # surjective; only the other rows need their last handle
            keep = np.repeat(_surjective_mask(
                G, _digits(prefix, [q] * (2 * g - 2)), hi - lo, memo), cnt)
            rest = ~keep
            if rest.any():
                keep[rest] = _surjective_mask(
                    G, _digits(code[rest], [q] * (2 * g)),
                    int(np.count_nonzero(rest)), memo)
            code = code[keep]
        parts.append(code)
    return np.concatenate(parts)


def build_level(G, g, v, surjective=True, budget=None):
    """(_Codes, sorted codes) of the genus-g tuples with branch data v
    (surjective ones only if asked); with no punctures, the closed level.

    Each distinct order of the slot kinds is one block of candidates, a
    mixed radix over the handle letters and the pools of all slots but
    the last; the last letter is solved from the relation and kept when
    it lies in its pool.  Candidates are filtered FILTER_CHUNK at a time.
    A closed level of genus g >= 1 is solved for its last handle: each of
    the q^{2(g-1)} handle prefixes is followed by the commutator fibre
    over the inverse of its commutator product, prefix blocks of about
    FILTER_CHUNK codes at a time, and the codes come out sorted.  The
    genus-0 closed level is one block, the empty order, whose only
    candidate is the empty tuple.  BudgetError, before anything is
    allocated, when covers.candidate_count exceeds budget or the code
    space overflows int64.
    """
    if budget is not None and candidate_count(G, g, v) > budget:
        raise BudgetError(f"enumeration budget {budget} exhausted")
    if g and not v.cardinality:
        codes = _Codes(G, g, 0, ())  # checks the code space first
        return codes, _closed_level(G, g, surjective)
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
        # the relation solves the last letter as p^{-1}, so p must be the
        # inverse of a letter of the last slot's pool; with no slots (the
        # empty tuple) the relation itself must hold, p = 1
        fits = np.zeros(q, dtype=bool)
        fits[inv[pools[order[-1]]] if order else 0] = True
        signs = [sign for _, sign in order]
        total = prod(radices)
        for start in range(0, total, FILTER_CHUNK):
            idx = np.arange(start, min(start + FILTER_CHUNK, total),
                            dtype=np.int64)
            cols = _digits(idx, radices)
            cols[L:] = [pools[kind][d] for kind, d in zip(order, cols[L:])]
            p = (word_values(word, dict(enumerate(cols)), q, mulf, inv)
                 if word else np.zeros_like(idx))
            keep = fits[p]
            if order:
                cols.append(inv[p])  # the solved last letter
            # free the chunk-sized product before the surjectivity filter:
            # kept, it raised the A4 genus-3 build's peak RSS by 3 MiB
            del p
            if surjective and keep.any():
                keep[keep] = _surjective_mask(G, [c[keep] for c in cols],
                                              int(np.count_nonzero(keep)), memo)
            size = int(np.count_nonzero(keep))
            parts.append(codes.encode([c[keep] for c in cols],
                                      [np.full(size, s) for s in signs], size))
    level = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    level.sort()
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


def _sweep(codes, level, plans, dense):
    """Partition a sorted, move-closed level into orbits under the moves
    of plans.

    Each orbit is seeded at the least level code outside the orbits
    before it and grown breadth first, every move applied to whole
    frontier pieces and re-encoded in the slots it writes only.  With
    dense, visited flags and orbit ids are indexed by code over the
    whole code space; otherwise by level position.  Returns (seed codes,
    orbit sizes, orbit ids).
    """
    L = 2 * codes.genus
    # each move with the slots whose letter or sign it writes
    moves = [(_applier(codes.group, plan),
              sorted({s for s, _ in plan.writes}
                     | {L + j for j, _ in plan.signs}))
             for plan in plans]
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
                code = piece if dense else level[piece]
                digits, cols, signs = codes.decode(code)
                for f, slots in moves:
                    enc = codes.recode(code, digits, *f(cols, signs), slots)
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
            # The old frontier goes (piece and code may be views of it)
            # before the new one is joined from its parts, so that the
            # three are never held at once.
            del frontier, piece, code
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


def _forward_moves(G, catalog):
    """The moves of catalog without those that only undo or repeat
    another: an *Inv kind whose forward kind with the same index is in
    the catalog, and a GlobalConj by an element that an earlier
    GlobalConj's element equals or inverts (an involution generator
    appears twice).

    The orbits stay the same.  Every move permutes the finite level (the
    sweep's closure check enforces that), so its inverse is one of its
    powers, and the forward closure of a tuple is its whole orbit."""
    kinds = {(m.kind, m.index) for m in catalog}
    conj = set()
    out = []
    for m in catalog:
        if m.kind.endswith("Inv") and (m.kind[:-3], m.index) in kinds:
            continue
        if m.kind == "GlobalConj":
            if m.element in conj:
                continue
            conj |= {m.element, G.inv[m.element]}
        out.append(m)
    return out


def orbit_scan(G, g, v, catalog, budget=None):
    """Partition the surjective genus-g level with branch data v into
    catalog orbits, applying only the catalog's forward moves
    (_forward_moves).

    A closed level (v without punctures) keeps its visited flags and
    orbit ids over its whole code space, so that space is capped at
    VEC_STATE_CAP and budget is not used; budget caps a punctured level's
    candidate count as in covers.enumerate_tuples.  Either raises
    BudgetError before anything is allocated.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    closed = not v.cardinality
    if closed:
        total = G.order ** (2 * g)
        if total > VEC_STATE_CAP:
            raise BudgetError(
                f"closed level of {total} states exceeds cap {VEC_STATE_CAP}")
    codes, level = build_level(G, g, v, True, None if closed else budget)
    plans = [move_plan(G, m, g, codes.n) for m in _forward_moves(G, catalog)]
    seeds, sizes, ids = _sweep(codes, level, plans, dense=closed)
    table = FastOrbitTable(MOVE_SET_TAG, tuple(codes.tuples(seeds)),
                           tuple(sizes), {}, codes, ids,
                           None if closed else level)
    return table, int(level.size)


def closed_orbit_scan(G, g, catalog):
    """orbit_scan of the closed genus-g level: (FastOrbitTable, number of
    tuples in the level).  A name of its own because
    perfbench/trace_job.py times closed scans through it."""
    return orbit_scan(G, g, BranchData(()), catalog)

"""Vectorized orbit scan for whole tuple levels, closed and punctured.

Every handle move of the catalog (TwistA and TwistB) acts on its own
pair (a_i, b_i) alone, fixes [a_i, b_i] letter for letter and keeps
<a_i, b_i>.  So a level is a disjoint union of nodes: products of
per-handle orbits on the q^2 pairs (_handle_orbits, once per group,
numbered by least pair) times one puncture word.  A node code (_Codes)
has a label digit per handle and a digit per puncture; node order is the
order of the nodes' least tuples, and a genus-0 level's nodes are its
tuples.  One builder (build_level) makes the sorted node codes of every
tuple of a level's relation, and one union-find (_join) partitions them
into orbits under the moves that span handles or punctures (_sweep), as
it partitions the pairs under the handle moves.  level_orbits, the one
entry point, runs builder and sweep with moves.move_catalog's moves.
Every move is an automorphism of pi_1 or a conjugation, so surjectivity
is decided once per orbit: the orbits whose representative does not
generate G are dropped.  Each of those moves acts on each of
its sites, the one or two node digits of the letter slots
moves._site_slots gives it (_spans), by a transition table on the site's
keys (_SiteTable), built by running the move's moves.move_plan on a
level of the site's own shape through moves.plan_evaluator, apply_move's
evaluator, on numpy columns of the site's tuples, whose node codes
_Codes.encode gives.  The tables are memoized per group under the move's
kind, element and site shape, so a move shares one table across its site
indices and across levels (_transitions), and each holds the keys that
levels have asked for.  ChainTwist is a relation on nodes (up to 22
targets per label pair on A4, 53 on S4).  The sweep looks up each
node's images under each move once.  Orbit and level sizes are sums of
node weights, the products of orbit sizes.
A budget bounds the prefixes build_level walks (_prefix_count) and the
tuples _Codes.expand makes.  The builder holds one depth of its walk,
the prefixes before the last free digit (16 bytes each), and adds that
digit FILTER_CHUNK // (pool size) prefixes at a time; it, the tables
and the sweep then work FILTER_CHUNK codes or tuples at a time
(_row_blocks), splitting a node or key with more, so no array made per
block has more rows.

On a 2-CPU Intel Xeon VM (Python 3.11, numpy 2.4), in-process
level_orbits on a new group (first call), then the median of 7 more
calls, handle orbits and tables memoized, two runs: A4 g=3 (742,560
tuples; 1,101 nodes of the relation, 948 kept) 6.4, then 2.6-2.7 ms;
D4 g=4 (8.2M tuples) 14-15, then 12.0-12.2 ms; S3 g=5 (20.1M) 11.9,
then 10.6 ms; S4 g=3 (15.4M; 16,093 nodes, 12,344 kept) 69-71, then
15.5-24.4 ms, the first call building tables over 24^4 handle-pair
tuples.  Genus 0 sweeps tuples: S4 "8 transpositions" (131,040 of
140,160) 68-76, then 59-81 ms, with the rank directory (_Positions); A5
"6 3-cycles" (960,120 of 1,072,540) 0.86-0.95, then 0.77 s, with
np.searchsorted, as its 20^6 codes are too sparse for the directory.
A genus-0 level whose puncture pools do not generate G is not built:
S4 "10 double transpositions" (14,763 tuples, none surjective) takes
0.16-0.19 ms on its first call and 0.03-0.04 ms after.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial, prod
from types import SimpleNamespace

import numpy as np

from .covers import (
    BranchData,
    BranchedTuple,
    _letters_for,
    is_surjective,
)
from .groups import BudgetError, generates
from .moves import (
    _MOVE_WORDS,
    MOVE_SET_TAG,
    Move,
    MoveError,
    OrbitTable,
    _np_tables,
    _site_slots,
    move_catalog,
    move_plan,
    plan_evaluator,
    word_values,
)

__all__ = ["level_orbits", "closed_orbit_scan", "build_level",
           "FastOrbitTable"]

FILTER_CHUNK = 1 << 13  # built, expanded or looked-up rows at a time
_BIT = np.array([1 << k for k in range(32)], dtype=np.int64)  # _Positions

# the move kinds that act within one handle; their orbits on pairs are
# the label digits
_HANDLE_KINDS = tuple(kind for kind, (site, _, _) in _MOVE_WORDS.items()
                      if site == "handle")


def _digits(codes, radices):
    """Mixed-radix digit columns of codes, most significant first."""
    cols = []
    rest = codes
    for radix in reversed(radices):
        rest, digit = np.divmod(rest, radix)
        cols.append(digit)
    cols.reverse()
    return cols


def _distinct(a):
    """The sorted distinct values of a: np.unique without the numpy.ma
    import it makes on first use (6-8 ms, median 7 ms: `import
    numpy.ma` timed after `import numpy` in 7 fresh processes with
    OpenBLAS at one thread, as the CLI loads it, on a 2-CPU Xeon VM,
    numpy 2.4.6)."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _row_blocks(weight, start=0):
    """The rows of items of the given weights, item i having rows
    start[i] to start[i] + weight[i] - 1 (0 to weight[i] - 1 by default),
    in order and in blocks of at most FILTER_CHUNK rows: one (item, row)
    pair of columns per block."""
    ends = np.cumsum(weight)
    first = ends - weight
    base = first - start
    total = int(ends[-1]) if ends.size else 0
    if total <= FILTER_CHUNK:  # one block, every item whole
        item = np.repeat(np.arange(weight.size), weight)
        yield item, np.arange(total) - base[item]
        return
    for r0 in range(0, total, FILTER_CHUNK):
        r1 = min(r0 + FILTER_CHUNK, total)
        i0, i1 = np.searchsorted(ends, [r0, r1 - 1], side="right").tolist()
        cnt = (np.minimum(ends[i0:i1 + 1], r1)
               - np.maximum(first[i0:i1 + 1], r0))
        item = np.repeat(np.arange(i0, i1 + 1), cnt)
        yield item, np.arange(r0, r1) - base[item]


def _roots(lab, x):
    """The roots of the nodes x in the forest lab (lab[r] == r at a root,
    any other node points at a lesser one), x then pointed at them."""
    r = lab[x]
    up = lab[r]
    while (up != r).any():
        r, up = up, lab[up]
        lab[x] = r
    return r


def _join(lab, u, v):
    """Join the trees of u[i] and v[i] for every i, hooking the greater
    root of each pair under the lesser (np.minimum.at keeps a root's
    least hook) until every pair shares a root, the least node of its
    tree (Tarjan, J. ACM 22, 1975; Shiloach & Vishkin, J. Alg. 3, 1982).
    u[i] may be any node of its tree, and is rooted only if not v[i]'s."""
    while True:
        v = _roots(lab, v)
        apart = u != v
        if not apart.any():
            return
        u, v = _roots(lab, u[apart]), v[apart]
        np.minimum.at(lab, np.maximum(u, v), np.minimum(u, v))


def _handle_orbits(G):
    """The orbits of the handle moves on the q^2 pairs (a, b), coded
    a * q + b and labelled in the order of their least pairs, computed
    once per group: label (pair code -> label), least (label -> least
    pair), size, comm (label -> [a, b] of each of its pairs), and
    members, the pair codes by label, ascending, from start[label]; the
    union-find (_join) joins each pair to its image under each move."""
    if "handle orbits" not in G.cache:
        q = G.order
        mulf, inv = _np_tables(G)
        pairs = np.arange(q * q, dtype=np.int64)
        ab = list(np.divmod(pairs, q))
        lab = pairs.copy()
        for kind in _HANDLE_KINDS:
            plan = move_plan(Move(kind), 1, 0)
            out, _ = plan_evaluator(G, plan, columns=True)(ab)
            _join(lab, pairs, out[0] * q + out[1])
        least = np.flatnonzero(_roots(lab, pairs) == pairs)
        label = np.searchsorted(least, lab)
        size = np.bincount(label)
        a, b = np.divmod(least, q)
        G.cache["handle orbits"] = SimpleNamespace(
            label=label, least=least, size=size,
            comm=word_values((0, 1, ~0, ~1), {0: a, 1: b}, q, mulf, inv),
            start=np.cumsum(size) - size,
            members=np.argsort(label, kind="stable"))
    return G.cache["handle orbits"]


class _Codes:
    """Codes of the genus-g, n-puncture tuples whose punctures take
    (letter, sign) pairs from alphabet, and of their nodes.

    A tuple code has 2g handle digits of radix q = |G|, then one digit
    per puncture, the rank of its pair in the sorted alphabet, so that
    tuple-code order is BranchedTuple.key order.  A node code has one
    label digit per handle (radix K, the number of handle orbits), then
    the same puncture digits; the node holds the tuples whose handle
    pairs lie in those orbits.  Labels are numbered by least pair, so
    node order is the order of the nodes' least tuples."""

    def __init__(self, G, g, n, alphabet):
        self.group, self.genus, self.n = G, g, n
        self.alphabet = tuple(sorted(alphabet))
        q, r = G.order, len(self.alphabet)
        if q ** (2 * g) * r ** n >= 1 << 63:
            raise BudgetError(f"code space of {q}^{2 * g} handle codes times "
                              f"{r}^{n} puncture codes overflows int64")
        self.orbits = _handle_orbits(G)
        self.radices = [self.orbits.size.size] * g + [r] * n
        # the place value of each node digit; tail, that of the last label
        self.place = [prod(self.radices[k + 1:])
                      for k in range(len(self.radices))]
        self.tail = r ** n
        self.space = prod(self.radices)  # the number of node codes
        self.letter = np.array([w for w, _ in self.alphabet], dtype=np.int64)
        self.sign = np.array([o for _, o in self.alphabet], dtype=np.int64)
        # rank of (w, o) at (o > 0) * q + w; -1 outside the alphabet
        self.rank = np.full(2 * q, -1, dtype=np.int64)
        self.rank[(self.sign > 0) * q + self.letter] = np.arange(r)

    def encode(self, letters, signs):
        """The node codes of the tuples whose letter columns, slot by slot,
        and sign columns, puncture by puncture, are given: each handle's
        pair label, then each puncture's alphabet rank.  MoveError when a
        puncture's (letter, sign) pair lies outside the alphabet."""
        q, L, H = self.group.order, 2 * self.genus, self.orbits
        digits = [H.label[a * q + b]
                  for a, b in zip(letters[0:L:2], letters[1:L:2])]
        for w, o in zip(letters[L:], signs):
            digits.append(self.rank[(o > 0) * q + w])
            if (digits[-1] < 0).any():
                raise MoveError("a move left the level's (letter, sign) "
                                "alphabet (catalog bug)")
        code = 0
        for digit, radix in zip(digits, self.radices):
            code = code * radix + digit
        return code

    def weight(self, nodes):
        """The number of tuples of each node: its handle orbit sizes
        multiplied."""
        w = np.ones(nodes.size, dtype=np.int64)
        for label in _digits(nodes // self.tail, self.radices[:self.genus]):
            w *= self.orbits.size[label]
        return w

    def pairs(self, labels, rank):
        """The pair codes, handle by handle, of tuple rank[i] (in
        ascending order, the first handle most significant) of the
        product of the handle orbits labels[0][i], labels[1][i], ...;
        with rank None, of the least tuple."""
        H = self.orbits
        if rank is None:
            return [H.least[label] for label in labels]
        out = []
        for label in reversed(labels):
            rank, k = np.divmod(rank, H.size[label])
            out.append(H.members[H.start[label] + k])
        return out[::-1]

    def letters(self, nodes, rank):
        """The letter columns by slot and the sign columns by puncture of
        tuple rank[i] of the nodes whose digits are nodes[0][i],
        nodes[1][i], ..."""
        g, q = self.genus, self.group.order
        cols = {}
        for d, pair in enumerate(self.pairs(nodes[:g], rank)):
            cols[2 * d], cols[2 * d + 1] = np.divmod(pair, q)
        for j, digit in enumerate(nodes[g:]):
            cols[2 * g + j] = self.letter[digit]
        return ([cols[s] for s in range(2 * g + self.n)],
                [self.sign[digit] for digit in nodes[g:]])

    def tuple_codes(self, nodes, rank=None):
        """Tuple codes of tuple rank[i] of nodes[i], in the node's
        ascending order; with rank None, of each node's least tuple."""
        q = self.group.order
        code = np.zeros(nodes.size, dtype=np.int64)
        for pair in self.pairs(
                _digits(nodes // self.tail, self.radices[:self.genus]), rank):
            code = code * (q * q) + pair
        return code * self.tail + nodes % self.tail

    def expand(self, nodes, budget=None):
        """The tuple codes of nodes in one array, node by node and
        ascending within each, sized from the node weights and filled
        FILTER_CHUNK tuples at a time; BudgetError, before it is
        allocated, when it would hold more than budget tuples."""
        weight = self.weight(nodes)
        total = int(weight.sum())
        if budget is not None and total > budget:
            raise BudgetError(f"enumeration budget {budget} exhausted: "
                              f"the level has {total} tuples")
        out = np.empty(total, dtype=np.int64)
        for start, (item, rank) in zip(range(0, total, FILTER_CHUNK),
                                       _row_blocks(weight)):
            out[start:start + item.size] = self.tuple_codes(nodes[item], rank)
        return out

    def codes_of(self, tuples):
        """The node codes of tuples, as an int64 array; KeyError when one
        has another shape or a letter outside 0..|G|-1, and encode's
        MoveError when a puncture lies outside the alphabet."""
        q, L, n = self.group.order, 2 * self.genus, self.n
        miss = KeyError("tuple not in this orbit table")
        if any(t.genus != self.genus or t.n != n for t in tuples):
            raise miss
        try:  # one row per tuple: its letters slot by slot, then its signs
            rows = np.array([t.flat[0] + t.flat[1] for t in tuples],
                            dtype=np.int64).reshape(len(tuples), L + 2 * n)
        except OverflowError:
            raise miss from None
        letters, signs = rows[:, :L + n].T, rows[:, L + n:].T
        if ((letters < 0) | (letters >= q)).any() or (abs(signs) != 1).any():
            raise miss
        # a shape with no digits has the one node code 0
        return np.zeros(len(tuples), dtype=np.int64) + self.encode(letters,
                                                                   signs)

    def tuples(self, codes):
        """The BranchedTuples of tuple codes, in order."""
        codes = np.asarray(codes, dtype=np.int64)
        G, g, L = self.group, self.genus, 2 * self.genus
        digits = _digits(codes, [G.order] * L + [len(self.alphabet)] * self.n)
        ranks = digits[L:]
        cols = (digits[:L] + [self.letter[k] for k in ranks]
                + [self.sign[k] for k in ranks])
        out = []
        # the codes themselves count the rows when there are no columns
        for _, *row in zip(codes.tolist(), *[c.tolist() for c in cols]):
            handles = tuple(zip(row[0:L:2], row[1:L:2]))
            punctures = tuple(zip(row[L:L + self.n], row[L + self.n:]))
            out.append(BranchedTuple(G, g, handles, punctures))
        return out


class FastOrbitTable(OrbitTable):
    """OrbitTable of a level held as nodes (_Codes); orbit_of stays
    empty.  level holds the sorted node codes, ids the orbit of each.
    Equality compares the OrbitTable fields only."""

    def __init__(self, move_set, representatives, sizes, orbit_of, codes,
                 ids, level):
        super().__init__(move_set, representatives, sizes, orbit_of)
        vars(self).update(codes=codes, ids=ids, level=level)

    @cached_property
    def positions(self):
        """The level's _Positions, built on the first lookup."""
        return _Positions(self.level, self.codes.space)

    def orbit_id(self, t):
        return self.orbit_ids([t])[0]

    def orbit_ids(self, tuples):
        """The orbit id of each tuple: its node code looked up in level,
        all in one lookup."""
        try:
            pos = self.positions(self.codes.codes_of(tuples))
        except MoveError:
            raise KeyError("tuple not in this orbit table") from None
        return self.ids[pos].tolist()

    def members(self):
        """Orbit id -> the least tuple of each of the orbit's nodes, in key
        order; the orbit's representative comes first."""
        codes = self.codes.tuple_codes(self.level)
        out = {i: [] for i in range(self.num_orbits)}
        for t, i in zip(self.codes.tuples(codes), self.ids.tolist()):
            out[i].append(t)
        return out


def _prefix_count(G, g, v):
    """The prefixes build_level's walk reaches at its last free digit for
    the genus-g level with branch data v, the measure its budget caps.
    With n >= 1 punctures: over the distinct orders of the slot kinds,
    K^g label prefixes (K handle orbits) times the pool sizes of every
    puncture but the last, whose letter is solved from the relation;
    summed in closed form, kind by kind as the last slot.  With none, the
    last handle is solved: K^{g-1} prefixes, and at g = 0 the empty one."""
    K = _handle_orbits(G).size.size if g else 1
    kinds = [(len(_letters_for(G, cid, sign)), k) for (cid, sign), k in v.counts]
    if not kinds:
        return K ** max(g - 1, 0)
    n = sum(k for _, k in kinds)
    total = 0
    for last in range(len(kinds)):
        orders, words = factorial(n - 1), 1
        for i, (size, k) in enumerate(kinds):
            k -= i == last
            orders //= factorial(k)
            words *= size ** k
        total += orders * words
    return K ** g * total


def _check_budget(G, g, v, budget):
    """BudgetError when build_level would walk more than budget prefixes
    (_prefix_count)."""
    if budget is not None and _prefix_count(G, g, v) > budget:
        raise BudgetError(f"enumeration budget {budget} exhausted")


def build_level(G, g, v, budget=None):
    """(_Codes, sorted node codes) of the genus-g level with branch data v,
    every tuple that satisfies the surface relation, surjective or not;
    with no punctures, the closed level.

    The walk extends (node code, product) prefix arrays digit by digit:
    the free handle labels (g, or g - 1 on a closed level), then the free
    puncture digits by kind-count state (the slots of each kind still
    open), one numpy step per state and open kind, the arrays that reach
    one state joined.  It holds one depth, the prefixes before the last
    free digit, at 16 bytes each (at most _prefix_count over that digit's
    least pool), and adds that digit FILTER_CHUNK // (pool size) prefixes
    at a time.  The last digit is solved: the entries of the one pool left
    (labels on a closed level; at g = 0 one empty digit of value 0) whose
    commutator or letter is the inverse of the prefix's product, written
    FILTER_CHUNK codes at a time.
    BudgetError, before the level is allocated, when it walks more than
    budget prefixes (_prefix_count) or its tuple code space overflows
    int64.
    """
    _check_budget(G, g, v, budget)
    pools = {kind: np.array(_letters_for(G, *kind), dtype=np.int64)
             for kind, _ in v.counts}
    codes = _Codes(G, g, v.cardinality, [(w, sign) for (_, sign), pool in
                                         pools.items() for w in pool.tolist()])
    q, K, r = G.order, codes.orbits.size.size, len(codes.alphabet)
    mulf, inv = _np_tables(G)
    # a digit's pool as (node digits, group values, radix), in order of
    # value: puncture letters are sorted, labels put in commutator order
    unit = (np.zeros(1, dtype=np.int64),) * 2 + (1,)
    handle = (np.argsort(codes.orbits.comm), np.sort(codes.orbits.comm), K)
    kinds = [(codes.rank[(sign > 0) * q + pool], pool, r)
             for (_, sign), pool in pools.items()]
    counts, free = tuple(k for _, k in v.counts), g
    if not counts:  # the last handle is the one slot, solved
        kinds, counts, free = [handle if g else unit], (1,), max(g - 1, 0)
    depth = free + sum(counts) - 1  # the free digits

    def steps(state, d):
        """(pool, state after) of the pools open at free digit d (-1: unit)."""
        if d < free:
            return [(handle if d >= 0 else unit, state)]
        return [(kinds[i], state[:i] + (k - 1,) + state[i + 1:])
                for i, k in enumerate(state) if k]

    def extend(code, p, pool):
        digit, value, radix = pool
        return ((code[:, None] * radix + digit).ravel(),
                mulf[p[:, None] * q + value].ravel())

    held = {counts: unit[:2]}
    for d in range(depth - 1):
        walked = {}
        for state, (code, p) in held.items():
            for pool, after in steps(state, d):
                walked.setdefault(after, []).append(extend(code, p, pool))
        held = {state: tuple(map(np.concatenate, zip(*walked.pop(state))))
                for state in list(walked)}
    # the entries of value x in a pool are offsets[x]:offsets[x + 1]
    offsets = [np.searchsorted(value, np.arange(q + 1))
               for _, value, _ in kinds]
    parts = []
    for state, (code, p) in held.items():
        for pool, after in steps(state, depth - 1):
            i = after.index(1)  # the kind of the solved slot
            (digit, _, radix), at = kinds[i], offsets[i]
            step = max(FILTER_CHUNK // (pool[0].size or 1), 1)
            for j in range(0, code.size, step):
                c, s = extend(code[j:j + step], p[j:j + step], pool)
                first = at[inv[s]]
                for item, k in _row_blocks(at[inv[s] + 1] - first, first):
                    parts.append(c[item] * radix + digit[k])
    del held, code, p  # the held depth is freed before the level is joined
    level = np.concatenate(parts)
    level.sort()
    return codes, level


class _Positions:
    """The positions of node codes in a sorted level of distinct codes in
    [0, space), built once per level.

    A rank directory over the code space (Jacobson, FOCS 1989): a bit per
    code, 32 to an int64 word, and the count of the level's codes up to
    the end of each word, so a code's position is that count less the
    set bits at or above it in its word: a few gathers, where a binary
    search makes about log2 of the level's size probes that miss the
    cache.  The words are int64, not uint64, because numpy's uint64
    kernels cost each orbits process about 0.3 MiB of peak RSS to load.
    The bits are set FILTER_CHUNK codes at a time and the counts summed
    from them, so the build makes no array per code.  Where the directory
    would take more bytes than the level's own int64 codes (fits),
    np.searchsorted over the level finds the positions instead.  Calling
    it on int64 codes returns their positions; MoveError when one is off
    the level."""

    def __init__(self, level, space):
        self.level = level
        self.bits = None
        if not self.fits(level.size, space):
            return
        words = -(-space // 32)
        self.bits = np.zeros(words, dtype=np.int64)
        for start in range(0, level.size, FILTER_CHUNK):
            code = level[start:start + FILTER_CHUNK]
            # a level's codes are distinct, so a word's bits sum to their or
            np.add.at(self.bits, code >> 5, _BIT[code & 31])
        self.rank = np.cumsum(np.bitwise_count(self.bits), dtype=np.int64)

    @staticmethod
    def fits(n, space):
        """Whether the rank directory of a code space of space codes, 16
        bytes per 32, takes no more bytes than n int64 codes: whether the
        space is at most 16 times the level."""
        return 16 * -(-space // 32) <= 8 * n

    def __call__(self, codes):
        if self.bits is None:
            pos = np.searchsorted(self.level, codes)
            off = (pos >= self.level.size).any()
            off = off or (self.level[pos] != codes).any()
        else:
            word = codes >> 5
            # each code's bit shifted to the bottom, the bits above it over it
            pos = self.bits[word] >> (codes & 31)
            off = not (pos & 1).all()
            pos = self.rank[word] - np.bitwise_count(pos)
        if off:
            raise MoveError("level is not move-closed (catalog/filter bug)")
        return pos


def _spans(m, g, n):
    """The node digit spans (lo, hi) of move m's sites on a genus-g,
    n-puncture level, in order: the digits of each site's slots
    (moves._site_slots), a handle's two letters sharing one digit."""
    if m.kind not in _MOVE_WORDS:
        raise MoveError(f"unknown move kind {m.kind}")
    digits = ([s // 2 if s < 2 * g else s - g for s in names.values()]
              for names in _site_slots(_MOVE_WORDS[m.kind][0], m.index, g, n))
    return list(dict.fromkeys((min(d), max(d)) for d in digits))


class _SiteTable:
    """The transition table of a move's plan (moves.move_plan) on a level
    of its site's own shape, h handles and p punctures, on the keys of the
    site, which are that level's node codes (_Codes of the shape over the
    level's alphabet).  One table serves its move at every site index and
    every level of the group.  It holds the keys that levels have asked
    for (fill): key k moves to k + delta[j] for j in start[k]:start[k + 1];
    multi when some key has several targets; complete once it holds every
    key."""

    def __init__(self, codes, plan):
        self.codes, self.plan = codes, plan
        self.space = codes.space
        self.done = np.zeros(self.space, dtype=bool)
        self.complete, self.multi = False, False
        self.pairs = np.zeros(0, dtype=np.int64)  # sorted key * space + target
        self.start = np.zeros(self.space + 1, dtype=np.int64)
        self.delta = self.pairs

    def fill(self, keys):
        """Add the rows of keys, sorted keys not yet held: the plan runs
        over every tuple of each key (its handle orbits' pairs, its
        punctures' letters and signs), FILTER_CHUNK tuples at a time, so
        a key with more tuples than that spans several blocks.

        MoveError when the table maps each key it holds to one key but
        two of them to the same one: a move is a bijection of tuples, so
        a move that sends each key into one key permutes the keys, and
        the level is not move-closed otherwise."""
        codes, space = self.codes, self.space
        f = plan_evaluator(codes.group, self.plan, columns=True)
        digits = _digits(keys, codes.radices)
        parts = [self.pairs]
        # label 0 holds only pair code 0, so a key's weight is its tuples
        for item, rank in _row_blocks(codes.weight(keys)):
            cols, signs = codes.letters([digit[item] for digit in digits],
                                        rank)
            del rank  # only the plan's columns live while it runs
            target = codes.encode(*f(cols, signs))
            parts.append(_distinct(keys[item] * space + target))
        # a key whose tuples span two blocks has its targets in both
        pairs = _distinct(np.concatenate(parts))
        src, target = np.divmod(pairs, space)
        start = np.zeros(space + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=space), out=start[1:])
        multi = bool((np.diff(start) > 1).any())
        if not multi and _distinct(target).size < target.size:
            raise MoveError("level is not move-closed: a move sends two "
                            "keys of a site to one (catalog/filter bug)")
        # kept only once checked, so the memo never holds a failed fill
        self.pairs, self.start, self.delta = pairs, start, target - src
        self.multi = multi
        self.done[keys] = True
        self.complete = bool(self.done.all())


def _transitions(codes, m, lo, hi, level):
    """The _SiteTable of move m on its site at node digits lo..hi of a
    level, holding every key (those digits read as one mixed-radix
    number) that occurs in level.  The site's h handle and p puncture
    digits are the shape of the table's plan, m's kind and element at
    index 0 on genus-h, p-puncture tuples.  It is memoized in G.cache
    under m's kind and element, the shape and, with a puncture digit, the
    alphabet, never under m's index, so every site and level of that
    shape shares it; level is read, FILTER_CHUNK codes at a time, only
    while the table lacks a key.  A node whose key is
    k = code // codes.place[hi] % space moves as its key does, the
    other digits kept."""
    G = codes.group
    h = max(min(hi + 1, codes.genus) - lo, 0)
    p = hi + 1 - lo - h
    memo = G.cache.setdefault("site tables", {})
    key = (m.kind, m.element, h, p, codes.alphabet if p else ())
    table = memo.get(key)
    if table is None:
        table = memo[key] = _SiteTable(
            _Codes(G, h, p, codes.alphabet),
            move_plan(Move(m.kind, 0, m.element), h, p))
    if not table.complete:
        place = codes.place[hi]
        seen = np.zeros(table.space, dtype=bool)
        for start in range(0, level.size, FILTER_CHUNK):
            seen[level[start:start + FILTER_CHUNK] // place % table.space] = True
        keys = np.flatnonzero(seen & ~table.done)
        if keys.size:
            table.fill(keys)
    return table


def _site_moves(codes, m, level):
    """The sites of move m on level (_spans) as _moved reads them: (place,
    key space, start, delta in node units, multi) of each site's table.
    A later fill of a shared table makes new arrays and leaves these
    rows as they are."""
    out = []
    for lo, hi in _spans(m, codes.genus, codes.n):
        t = _transitions(codes, m, lo, hi, level)
        place = codes.place[hi]
        out.append((place, t.space, t.start, t.delta * place, t.multi))
    return out


def _moved(code, sites, src):
    """(sources, images): the node codes that one move's sites
    (_site_moves) take the nodes code to, each with the entry of src
    that names its node (src[i] names code[i]), in pieces of at most
    FILTER_CHUNK codes when a site has several targets per key."""
    for k, (place, space, begin, delta, multi) in enumerate(sites):
        key = code // place % space
        at = begin[key]
        if multi:
            for item, j in _row_blocks(begin[key + 1] - at, at):
                yield from _moved(code[item] + delta[j], sites[k + 1:],
                                  src[item])
            return
        code = code + delta[at]
    yield src, code


def _sweep(codes, level, moves):
    """Partition a sorted, move-closed node level into orbits under
    moves, with the handle moves that connect each node.

    A union-find over level positions (_join) joins each node to the
    nodes its tuples reach under each move, FILTER_CHUNK nodes at a time
    through the move's site tables (_transitions, memoized per group) to
    their images (_moved), whose positions one lookup finds (the level's
    _Positions, built once).  A code off the level, or a table that
    merges keys, is a MoveError.  A root is the least node of its orbit,
    so its least tuple is the orbit's; one pass numbers the roots in
    order, representative order, and each representative is its own
    canonical form, as orbits are closed under conjugation.  Returns
    (seed node codes, orbit sizes in tuples, orbit id of every node).
    """
    sited = [_site_moves(codes, m, level) for m in moves]
    positions = _Positions(level, codes.space)
    n_nodes = int(level.size)
    lab = np.arange(n_nodes, dtype=np.int64)
    for start in range(0, n_nodes, FILTER_CHUNK):
        node = np.arange(start, min(start + FILTER_CHUNK, n_nodes))
        root = _roots(lab, node)  # each image is first compared with it
        for sites in sited:
            for src, enc in _moved(level[node], sites, root):
                _join(lab, src, positions(enc))
    ids = np.empty(n_nodes, dtype=np.int32)
    seeds = []
    for start in range(0, n_nodes, FILTER_CHUNK):
        node = np.arange(start, min(start + FILTER_CHUNK, n_nodes))
        root = _roots(lab, node)
        new = node[root == node]
        ids[new] = np.arange(len(seeds), len(seeds) + new.size)
        seeds += level[new].tolist()
        ids[node] = ids[root]  # a root is its own or an earlier node
    sizes = np.zeros(len(seeds), dtype=np.int64)
    for start in range(0, n_nodes, FILTER_CHUNK):
        np.add.at(sizes, ids[start:start + FILTER_CHUNK],
                  codes.weight(level[start:start + FILTER_CHUNK]))
    return seeds, sizes.tolist(), ids


def _orbit_scan(G, g, v, budget):
    """level_orbits' worker: build_level's nodes, every tuple of the
    relation, swept with moves.move_catalog's moves but its handle moves,
    which the nodes stand for.  Every move is an automorphism of pi_1 or
    a conjugation, so the letters of an orbit's tuples generate conjugate
    subgroups: the orbits whose representative does not generate G are
    dropped, with their nodes, and the orbits kept are renumbered in
    order."""
    _check_budget(G, g, v, budget)
    if g == 0:
        alphabet = [(w, sign) for (cid, sign), _ in v.counts
                    for w in _letters_for(G, cid, sign)]
        if not generates(G, [w for w, _ in alphabet]):
            empty = np.zeros(0, dtype=np.int64)
            codes = _Codes(G, 0, v.cardinality, alphabet)
            return FastOrbitTable(MOVE_SET_TAG, (), (), {}, codes, empty,
                                  empty), 0
    codes, level = build_level(G, g, v)  # within budget, as checked above
    seeds, sizes, ids = _sweep(
        codes, level, [m for m in move_catalog(G, g, v.cardinality)
                       if m.kind not in _HANDLE_KINDS])
    reps = codes.tuples(codes.tuple_codes(np.array(seeds, dtype=np.int64)))
    keep = np.array([is_surjective(t) for t in reps], dtype=bool)
    on = keep[ids]
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    reps = [t for t, k in zip(reps, keep) if k]
    sizes = [n for n, k in zip(sizes, keep) if k]
    table = FastOrbitTable(MOVE_SET_TAG, tuple(reps), tuple(sizes), {},
                           codes, renumber[ids[on]], level[on])
    return table, sum(sizes)


def closed_orbit_scan(G, g, budget=None):
    """level_orbits of the closed genus-g level.  A name of its own
    because perfbench/trace_job.py times closed scans through it."""
    return _orbit_scan(G, g, BranchData(()), budget)


def level_orbits(G, g, v, budget=None):
    """(orbit table, number of tuples) for the surjective tuples of the
    genus-g level with branch data v under moves.move_catalog; a closed
    level goes through closed_orbit_scan, which it looks up in this
    module, where perfbench/trace_job.py puts its timed wrapper.
    BudgetError, before the level is allocated, when build_level would
    walk more than budget prefixes (_prefix_count); past it, a genus-0
    level whose puncture letters do not generate G is empty and is not
    built.  No tuple object is built but the representatives.
    """
    if v.cardinality == 0:
        return closed_orbit_scan(G, g, budget)
    return _orbit_scan(G, g, v, budget)

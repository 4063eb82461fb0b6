"""Vectorized orbit scan for whole tuple levels, closed and punctured.

Every handle move of the catalog (TwistA, TwistB, HandleBlockTwist and
their *Inv kinds) acts on its own pair (a_i, b_i) alone, fixes [a_i, b_i]
letter for letter and keeps <a_i, b_i>.  So a level is a disjoint union
of nodes: products of per-handle orbits on the q^2 pairs
(_handle_orbits, once per group, numbered by least pair) times one
puncture word.  A node code (_Codes) has a label digit per handle and a
digit per puncture; node order is the order of the nodes' least tuples,
and a genus-0 level's nodes are its tuples.  One builder (build_level)
makes the sorted node codes of every tuple of a level's relation, and
one frontier sweep (_sweep) partitions them into orbits under the moves
that span handles or punctures.  Every move is an automorphism of pi_1
or a conjugation, so surjectivity is decided once per orbit: orbit_scan
drops the orbits whose representative does not generate G.  Each of
those moves is a transition table on the digits of each of its sites
(_transitions), built by running its moves.move_plan through
moves.plan_evaluator, apply_move's evaluator, on numpy columns of the
site's tuples, for the digit values that occur in the level.
ChainTwist is a relation on nodes (up to 22 targets per label pair on
A4, 53 on S4), so its frontier is deduplicated.  Orbit and level sizes
are sums of node weights, the products of orbit sizes.  A budget bounds
the prefixes build_level walks (_prefix_count) and the tuples
_Codes.expand makes.  The builder, the transition tables and the sweep
work FILTER_CHUNK prefixes, tuples or codes at a time (_row_blocks),
splitting a node or key with more, so no array made per block has more
rows.

On a 2-CPU Intel Xeon VM (Python 3.11, numpy 2.4), the median of 7
warm in-process level_orbits calls, two runs: A4 g=3 (742,560 tuples;
1,101 nodes of the relation, 948 kept) 0.013-0.018 s, D4 g=4 (8.2M
tuples) 0.019-0.029 s, S3 g=5 (20.1M) 0.013-0.021 s, S4 g=3 (15.4M;
16,093 nodes, 12,344 kept) 0.14-0.17 s, three quarters of it building
the transition tables.  Genus 0 sweeps tuples: S4 "8 transpositions"
(131,040 of 140,160) 0.11-0.14 s, an eighth of it finding level
positions in the rank directory (_Positions); A5 "6 3-cycles" (960,120
of 1,072,540) 3.9 s, three quarters of it in np.searchsorted, because
its 20^6 codes are too sparse for the directory.
A genus-0 level whose puncture pools do not generate G is not built:
S4 "10 double transpositions" (14,763 tuples, none surjective) takes
2 ms cold, 0.1 ms warm, where its sweep took 0.08 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from types import SimpleNamespace

import numpy as np

from .covers import (
    BranchData,
    BranchedTuple,
    BudgetError,
    _letters_for,
    _multiset_permutations,
    is_surjective,
)
from .groups import generates
from .moves import (
    _MOVE_WORDS,
    MOVE_SET_TAG,
    Move,
    MoveError,
    OrbitTable,
    _np_tables,
    move_catalog,
    move_plan,
    plan_evaluator,
    word_values,
)

__all__ = ["orbit_scan", "closed_orbit_scan", "level_orbits", "build_level",
           "FastOrbitTable"]

FILTER_CHUNK = 1 << 13  # prefixes, frontier nodes or tuples at a time
_BIT = np.array([1 << k for k in range(32)], dtype=np.int64)  # _Positions

# the move kinds that act within one handle (an *Inv kind has the orbits
# of its forward kind); their orbits on pairs are the label digits
_HANDLE_KINDS = tuple(kind for kind, (site, _, _) in _MOVE_WORDS.items()
                      if site == "handle" and not kind.endswith("Inv"))


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
    import it makes on first use (45 ms on a 2-CPU Xeon VM)."""
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


def _handle_orbits(G):
    """The orbits of the handle moves on the q^2 pairs (a, b), coded
    a * q + b and labelled in the order of their least pairs, computed
    once per group: label (pair code -> label), least (label -> least
    pair), size, comm (label -> [a, b] of each of its pairs), and
    members, the pair codes by label, ascending, from start[label]."""
    if "handle orbits" not in G.cache:
        q = G.order
        mulf, inv = _np_tables(G)
        pairs = np.arange(q * q, dtype=np.int64)
        ab = list(np.divmod(pairs, q))
        perms = []
        for kind in _HANDLE_KINDS:
            plan = move_plan(G, Move(kind), 1, 0)
            out, _ = plan_evaluator(G, plan, columns=True)(ab)
            perms.append(out[0] * q + out[1])
        # each pair's label falls to the least pair code joined to it,
        # along every move both ways and by pointer jumping
        lab, old = pairs, None
        while old is None or (lab != old).any():
            old = lab
            for p in perms:
                lab = np.minimum(lab, lab[p])
                lab[p] = np.minimum(lab[p], lab)
            lab = lab[lab]
        least, label = np.unique(lab, return_inverse=True)
        size = np.bincount(label)
        a, b = np.divmod(least, q)
        G.cache["handle orbits"] = SimpleNamespace(
            label=label, least=least, size=size,
            comm=word_values(_relator(2), {0: a, 1: b}, q, mulf, inv),
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

    def _ranks(self, w, o):
        """Alphabet ranks of the (letter, sign) pairs of a puncture
        column; MoveError when one lies outside the alphabet."""
        k = self.rank[(o > 0) * self.group.order + w]
        if (k < 0).any():
            raise MoveError("a move left the level's (letter, sign) "
                            "alphabet (catalog bug)")
        return k

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

    def site_letters(self, lo, hi, site, rank):
        """The letter columns by slot and the sign columns by puncture
        that node digits lo..hi hold in tuple rank[i] of the nodes whose
        digits there are site[0][i], site[1][i], ..."""
        g, q = self.genus, self.group.order
        handles = range(lo, min(hi + 1, g))  # punctures follow every handle
        cols, signs = {}, {}
        for d, pair in zip(handles, self.pairs(site[:len(handles)], rank)):
            cols[2 * d], cols[2 * d + 1] = np.divmod(pair, q)
        for d, digit in zip(range(lo, hi + 1), site):
            if d >= g:
                cols[d + g] = self.letter[digit]
                signs[d - g] = self.sign[digit]
        return cols, signs

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
        has another shape, a letter outside 0..|G|-1 or a puncture
        outside the alphabet."""
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
        ranks = self.rank[(signs > 0) * q + letters[L:]]
        if (ranks < 0).any():
            raise miss
        code = np.zeros(len(tuples), dtype=np.int64)
        for a, b in zip(letters[0:L:2], letters[1:L:2]):
            code = code * self.orbits.size.size + self.orbits.label[a * q + b]
        for k in ranks:
            code = code * len(self.alphabet) + k
        return code

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


@dataclass(frozen=True, eq=False)
class FastOrbitTable(OrbitTable):
    """OrbitTable of a level held as nodes (_Codes); orbit_of stays
    empty.  level holds the sorted node codes, ids the orbit of each."""

    codes: _Codes
    ids: np.ndarray
    level: np.ndarray

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


def _relator(L):
    """Register word of the handle commutators [a_1,b_1]...[a_g,b_g]."""
    return [r for i in range(0, L, 2) for r in (i, i + 1, ~i, ~(i + 1))]


def _prefix_count(G, g, v):
    """The prefixes build_level walks for the genus-g level with branch
    data v, the measure its budget caps.  With n >= 1 punctures: over the
    distinct orders of the slot kinds, K^g label prefixes (K handle
    orbits) times the pool sizes of every puncture but the last, whose
    letter is solved from the relation; summed in closed form, kind by
    kind as the last slot, without walking the orders.  With none, the
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

    Each distinct order of the puncture kinds is one block: a mixed radix
    over every digit but the last, FILTER_CHUNK prefixes at a time, each
    followed by the entries of the last pool (labels on a closed level,
    letters otherwise) whose commutator or letter is the inverse of the
    prefix's product, written FILTER_CHUNK codes at a time.  The empty
    tuple has no digits and product 1.
    BudgetError, before the level is allocated, when it walks more than
    budget prefixes (_prefix_count) or its tuple code space overflows
    int64.
    """
    _check_budget(G, g, v, budget)
    pools = {kind: np.array(_letters_for(G, *kind), dtype=np.int64)
             for kind, _ in v.counts}
    slots = [kind for kind, k in v.counts for _ in range(k)]
    codes = _Codes(G, g, len(slots), [(w, sign) for (_, sign), pool in
                                      pools.items() for w in pool.tolist()])
    q, H = G.order, codes.orbits
    mulf, inv = _np_tables(G)
    # a digit's pool entries as (node digit, group value)
    handle = (np.arange(H.size.size), H.comm)
    parts = []
    for order in _multiset_permutations(slots):
        digits = [handle] * g + [(codes.rank[(sign > 0) * q + pools[c, sign]],
                                  pools[c, sign]) for c, sign in order]
        *head, (_, value) = digits or [(None, np.zeros(1, np.int64))]
        # the last pool's entries grouped by value, ascending within each
        by = np.argsort(value, kind="stable")
        offsets = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(np.bincount(value, minlength=q), out=offsets[1:])
        radices = [d.size for d, _ in head]
        total = prod(radices)
        for start in range(0, total, FILTER_CHUNK):
            idx = np.arange(start, min(start + FILTER_CHUNK, total),
                            dtype=np.int64)
            cols = _digits(idx, radices)
            p = np.zeros_like(idx)
            for (_, val), c in zip(head, cols):
                p = mulf[p * q + val[c]]
            first = offsets[inv[p]]
            for item, k in _row_blocks(offsets[inv[p] + 1] - first, first):
                # gathered one digit column at a time, to keep the peak low
                code = np.zeros(item.size, dtype=np.int64)
                for (d, _), c, rows, w in zip(digits, cols + [by],
                                              [item] * len(cols) + [k],
                                              codes.place):
                    code += d[c[rows]] * w
                parts.append(code)
    level = np.concatenate(parts)
    level.sort()
    return codes, level


def _next_unvisited(ids, pos):
    """The first node position at or after pos without an orbit id
    (ids.size if none), searched in blocks that double in size."""
    step = 64
    while pos < ids.size and (ids[pos:pos + step] >= 0).all():
        pos, step = pos + step, step * 2
    if pos >= ids.size:
        return ids.size
    return pos + int((ids[pos:pos + step] < 0).argmax())


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
    from them, so the build makes no array per code.  Where the directory would take more bytes than the level's own int64
    codes (fits), np.searchsorted over the level finds the positions
    instead.  Calling it on int64 codes returns their positions;
    MoveError when one is off the level."""

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


def _sites(plan, g):
    """The node digit ranges (lo, hi) on which plan's move acts
    independently: each written letter or sign with the digits it is
    computed from, merged where they overlap."""
    def digit(slot):
        return slot // 2 if slot < 2 * g else slot - g

    reads = {plan.slots: set()}  # register -> the digits it is read from
    for reg, _, _, word in plan.steps:
        reads[reg] = set().union(*(
            reads[r] if r >= plan.slots else {digit(r)}
            for r in (r if r >= 0 else ~r for r in word)))
    spans = [{digit(slot)} | reads.get(reg, {digit(reg)})
             for slot, reg in plan.writes]
    spans += [{g + j, g + src} for j, src in plan.signs]
    sites = []
    for lo, hi in sorted((min(d), max(d)) for d in spans):
        if sites and lo <= sites[-1][1]:
            lo, hi = sites[-1][0], max(hi, sites.pop()[1])
        sites.append((lo, hi))
    return sites


def _transitions(codes, plan, lo, hi, level):
    """The transition table of plan's move on node digits lo..hi, read as
    one mixed-radix key, for the keys that occur in level: the plan runs
    over every tuple of each key (its handle orbits' pairs, its
    punctures' letters and signs), FILTER_CHUNK tuples at a time, so a
    key with more tuples than that spans several blocks.

    Returns (place, space, start, delta, multi): a node whose key is
    k = code // place % space moves to code + delta[j] for j in
    start[k]:start[k + 1]; multi when some key has several targets.
    """
    G, g, H = codes.group, codes.genus, codes.orbits
    q = G.order
    radices = codes.radices[lo:hi + 1]
    place, space = codes.place[hi], prod(radices)
    seen = np.zeros(space, dtype=bool)
    for start in range(0, level.size, FILTER_CHUNK):
        seen[level[start:start + FILTER_CHUNK] // place % space] = True
    keys = np.flatnonzero(seen)
    f = plan_evaluator(G, plan, columns=True)
    digits = _digits(keys, radices)
    parts = [np.zeros(0, dtype=np.int64)]
    # label 0 holds only pair code 0, the identities, which every move
    # fixes, so the zero digits of keys * place count once
    for item, rank in _row_blocks(codes.weight(keys * place)):
        cols, signs = codes.site_letters(
            lo, hi, [digit[item] for digit in digits], rank)
        del rank  # only the plan's columns live while it runs
        # letters outside the site are read by no letter inside it
        zero = np.zeros(item.size, dtype=np.int64)
        out, out_signs = f([cols.get(s, zero) for s in range(plan.slots)],
                           [signs.get(j, zero + 1) for j in range(codes.n)])
        target = np.zeros(item.size, dtype=np.int64)
        for d, radix in zip(range(lo, hi + 1), radices):
            target *= radix
            target += (H.label[out[2 * d] * q + out[2 * d + 1]] if d < g
                       else codes._ranks(out[d + g], out_signs[d - g]))
        parts.append(_distinct(item * space + target))
    # a key whose tuples span two blocks has its targets in both
    pairs = _distinct(np.concatenate(parts))
    src = keys[pairs // space]
    start = np.zeros(space + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=space), out=start[1:])
    return (place, space, start, (pairs % space - src) * place,
            bool((np.diff(start) > 1).any()))


def _moved(code, sites):
    """The node codes that one move's site tables (_transitions) take
    the nodes code to, in pieces of at most FILTER_CHUNK codes when a
    site has several targets per key."""
    for k, (place, space, begin, delta, multi) in enumerate(sites):
        key = code // place % space
        at = begin[key]
        if multi:
            for item, j in _row_blocks(begin[key + 1] - at, at):
                yield from _moved(code[item] + delta[j], sites[k + 1:])
            return
        code = code + delta[at]
    yield code


def _sweep(codes, level, plans):
    """Partition a sorted, move-closed node level into orbits under the
    moves of plans, with the handle moves that connect each node.

    Each orbit is seeded at the least node outside the orbits before it
    and grown breadth first: every move's transition tables take the
    frontier, FILTER_CHUNK nodes at a time, to the node codes their
    tuples reach (_moved, in pieces of at most FILTER_CHUNK), whose
    level positions the level's _Positions, built once, finds.  A move
    with more than one target per key can reach a node twice, so its
    output is deduplicated; every other move permutes the nodes.  Orbit
    sizes are summed from the node weights once every node has its
    orbit.  Returns (seed node codes, orbit sizes in tuples, orbit id of
    every node).
    """
    tables = []  # (each site's table, whether one has several targets)
    for plan in plans:
        sites = [_transitions(codes, plan, lo, hi, level)
                 for lo, hi in _sites(plan, codes.genus)]
        tables.append((sites, any(site[-1] for site in sites)))
    positions = _Positions(level, codes.space)
    n_nodes = int(level.size)
    ids = np.full(n_nodes, -1, dtype=np.int32)
    seeds, reached = [], 0
    pos = _next_unvisited(ids, 0)
    while pos < n_nodes:
        oid = len(seeds)
        ids[pos] = oid
        frontier = np.array([pos], dtype=np.int64)
        while frontier.size:
            reached += frontier.size
            new_parts = []
            for start in range(0, frontier.size, FILTER_CHUNK):
                code = level[frontier[start:start + FILTER_CHUNK]]
                for sites, multi in tables:
                    for enc in _moved(code, sites):
                        enc = positions(enc)
                        enc = enc[ids[enc] < 0]
                        if multi:
                            enc = _distinct(enc)
                        if enc.size:
                            ids[enc] = oid
                            new_parts.append(enc)
            # the old frontier goes before the new one is joined
            del frontier
            frontier = (np.concatenate(new_parts) if new_parts
                        else np.array([], dtype=np.int64))
        seeds.append(int(level[pos]))
        pos = _next_unvisited(ids, pos + 1)
    # a move that permutes the nodes reaches no node twice, so every node
    # is counted once unless the level or the catalog is wrong
    if reached != n_nodes:
        raise MoveError("level is not move-closed (catalog/filter bug)")
    sizes = np.zeros(len(seeds), dtype=np.int64)
    for start in range(0, n_nodes, FILTER_CHUNK):
        np.add.at(sizes, ids[start:start + FILTER_CHUNK],
                  codes.weight(level[start:start + FILTER_CHUNK]))
    # Each seed is the least node outside the earlier orbits, so its
    # least tuple is its orbit's, the orbits come in representative
    # order, and (orbits are closed under conjugation) each
    # representative is its own canonical form.
    return seeds, sizes.tolist(), ids


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
    catalog orbits: build_level's nodes, every tuple of the relation,
    swept with the catalog's forward moves (_forward_moves) but its
    handle moves, which must twist every handle (MoveError otherwise).
    Every move is an automorphism of pi_1 or a conjugation, so the
    letters of an orbit's tuples generate conjugate subgroups: the
    orbits whose representative does not generate G are dropped, with
    their nodes, and the orbits kept are renumbered in order.

    BudgetError, before the level is allocated, when build_level would
    walk more than budget prefixes, closed or punctured; past it, a genus-0
    level whose puncture pools (all its letters) do not generate G is empty.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    if not ({(m.kind.removesuffix("Inv"), m.index) for m in catalog}
            >= {(kind, i) for kind in _HANDLE_KINDS for i in range(g)}):
        raise MoveError("the catalog lacks a handle move on some handle")
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
    plans = [move_plan(G, m, g, codes.n) for m in _forward_moves(G, catalog)
             if m.kind.removesuffix("Inv") not in _HANDLE_KINDS]
    seeds, sizes, ids = _sweep(codes, level, plans)
    reps = codes.tuples(codes.tuple_codes(np.array(seeds, dtype=np.int64)))
    keep = np.array([is_surjective(t) for t in reps], dtype=bool)
    on = keep[ids]
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    reps = [t for t, k in zip(reps, keep) if k]
    sizes = [n for n, k in zip(sizes, keep) if k]
    table = FastOrbitTable(MOVE_SET_TAG, tuple(reps), tuple(sizes), {},
                           codes, renumber[ids[on]], level[on])
    return table, sum(sizes)


def closed_orbit_scan(G, g, catalog, budget=None):
    """orbit_scan of the closed genus-g level: (FastOrbitTable, number of
    tuples in the level).  A name of its own because
    perfbench/trace_job.py times closed scans through it."""
    return orbit_scan(G, g, BranchData(()), catalog, budget)


def level_orbits(G, g, v, enum_budget):
    """(orbit table, number of tuples) for the surjective tuples of one
    (g, v) level under moves.move_catalog: orbit_scan, and on a closed
    level closed_orbit_scan, which it looks up in this module, where
    perfbench/trace_job.py puts its timed wrapper.  enum_budget caps the
    prefixes build_level walks: a level over it raises BudgetError before
    it is allocated, and a genus-0 level whose puncture letters do not
    generate G is empty and is not built.  No tuple object is built but
    the representatives.
    """
    n = v.cardinality
    catalog = move_catalog(G, g, n)
    if n == 0:
        return closed_orbit_scan(G, g, catalog, enum_budget)
    return orbit_scan(G, g, v, catalog, enum_budget)

"""Vectorized orbit scan for whole tuple levels, closed and punctured.

Every handle move of the catalog (TwistA, TwistB, HandleBlockTwist and
their *Inv kinds) acts on its own pair (a_i, b_i) alone, fixes [a_i, b_i]
letter for letter and keeps <a_i, b_i>.  So a level is a disjoint union
of nodes: products of per-handle orbits on the q^2 pairs
(_handle_orbits, once per group, numbered by least pair) times one
puncture word.  A node code (_Codes) has a label digit per handle and a
digit per puncture; node order is the order of the nodes' least tuples,
and a genus-0 level's nodes are its tuples.  One builder (build_level)
makes every level's sorted node codes, and one frontier sweep (_sweep)
partitions them into orbits under the moves that span handles or
punctures.  Each of those moves is a transition table on the digits of
each of its sites (_transitions), built by running its moves.move_plan
through _applier on numpy columns of the site's tuples, for the digit
values that occur in the level.  ChainTwist is a relation on nodes (up
to 22 targets per label pair on A4, 53 on S4), so its frontier is
deduplicated.  Orbit and level sizes are sums of node weights, the
products of orbit sizes.  A budget bounds the prefixes build_level walks
(_prefix_count) and the tuples _Codes.expand makes.

On a 2-CPU Intel Xeon VM (Python 3.11, numpy 2.4), median of 5
in-process orbit_scan runs: A4 g=3 (742,560 tuples in 948 nodes)
0.019 s, D4 g=4 (8.2M tuples) 0.033 s, S3 g=5 (20.1M) 0.032 s, S4 g=3
(15.4M in 12,344 nodes) 0.32 s, most of it in surjectivity closures.
Genus 0 sweeps tuples: S4 "8 transpositions" (131,040) 0.39 s,
2.9 us/tuple, half of it in np.searchsorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from types import SimpleNamespace

import numpy as np

from .covers import (
    BranchData,
    BranchedTuple,
    BudgetError,
    _letters_for,
    _multiset_permutations,
)
from .groups import closure
from .moves import (
    _MOVE_WORDS,
    MOVE_SET_TAG,
    Move,
    MoveError,
    OrbitTable,
    _np_tables,
    move_plan,
    word_values,
)

__all__ = ["orbit_scan", "closed_orbit_scan", "build_level", "FastOrbitTable"]

FILTER_CHUNK = 1 << 18  # prefixes, frontier nodes or tuples at a time

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


def _ragged(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for every
    i, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


def _distinct(a):
    """The sorted distinct values of a: np.unique without the numpy.ma
    import it makes on first use (45 ms on a 2-CPU Xeon VM)."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _blocks(weight):
    """Bounds of consecutive blocks of about FILTER_CHUNK total weight
    (more only when one item outweighs it)."""
    cuts = np.searchsorted(np.cumsum(weight), np.arange(
        FILTER_CHUNK, weight.sum(), FILTER_CHUNK), side="right")
    return _distinct(np.concatenate(([0], cuts, [weight.size]))).tolist()


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
            out, _ = _applier(G, move_plan(G, Move(kind), 1, 0))(ab)
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

    def tuple_codes(self, nodes, least=False):
        """Tuple codes of the tuples of nodes, node by node and ascending
        within each; with least, only each node's least tuple."""
        H, q = self.orbits, self.group.order
        rows = np.arange(nodes.size)
        code = np.zeros(nodes.size, dtype=np.int64)
        for label in _digits(nodes // self.tail, self.radices[:self.genus]):
            label = label[rows]
            if least:
                pair = H.least[label]
            else:
                cnt = H.size[label]
                pair = H.members[_ragged(H.start[label], cnt)]
                rows, code = rows.repeat(cnt), code.repeat(cnt)
            code = code * (q * q) + pair
        return code * self.tail + nodes[rows] % self.tail

    def expand(self, nodes, budget=None):
        """tuple_codes of nodes in one array, sized from the node weights
        and filled about FILTER_CHUNK tuples at a time; BudgetError, before
        it is allocated, when it would hold more than budget tuples."""
        weight = self.weight(nodes)
        ends = np.cumsum(weight)
        total = int(ends[-1]) if ends.size else 0
        if budget is not None and total > budget:
            raise BudgetError(f"enumeration budget {budget} exhausted: "
                              f"the level has {total} tuples")
        out = np.empty(total, dtype=np.int64)
        bounds = _blocks(weight)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[ends[lo] - weight[lo]:ends[hi - 1]] = \
                self.tuple_codes(nodes[lo:hi])
        return out

    def code_of(self, t):
        """The node code of one tuple; KeyError when it has another shape,
        a letter outside 0..|G|-1 or a puncture outside the alphabet."""
        q = self.group.order
        if (t.genus != self.genus or len(t.punctures) != self.n
                or not all(0 <= x < q for x in t.letters())
                or not all(o in (1, -1) for _, o in t.punctures)):
            raise KeyError("tuple not in this orbit table")
        code = 0
        for a, b in t.handles:
            code = code * self.orbits.size.size + int(self.orbits.label[a * q + b])
        for w, o in t.punctures:
            k = int(self.rank[(o > 0) * q + w])
            if k < 0:
                raise KeyError("tuple not in this orbit table")
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

    def orbit_id(self, t):
        code = self.codes.code_of(t)
        pos = int(np.searchsorted(self.level, code))
        if pos == self.level.size or self.level[pos] != code:
            raise KeyError("tuple not in this orbit table")
        return int(self.ids[pos])

    def members(self, budget=None):
        """Orbit id -> the orbit's tuples in key order; BudgetError when
        the level has more than budget tuples (_Codes.expand)."""
        codes = self.codes.expand(self.level, budget)
        ids = self.ids.repeat(self.codes.weight(self.level))
        order = np.argsort(codes, kind="stable")
        out = {i: [] for i in range(self.num_orbits)}
        for t, i in zip(self.codes.tuples(codes[order]), ids[order].tolist()):
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


def build_level(G, g, v, surjective=True, budget=None):
    """(_Codes, sorted node codes) of the genus-g level with branch data v
    (surjective tuples only if asked); with no punctures, the closed
    level.

    Each distinct order of the puncture kinds is one block: a mixed radix
    over every digit but the last, FILTER_CHUNK prefixes at a time, each
    followed by the entries of the last pool (labels on a closed level,
    letters otherwise) whose commutator or letter is the inverse of the
    prefix's product.  The empty tuple has no digits and product 1.
    Surjectivity is tested on each node's least tuple, since <a, b> is
    the same on a handle orbit.  BudgetError, before the level is
    allocated, when it walks more than budget prefixes (_prefix_count)
    or its tuple code space overflows int64.
    """
    if budget is not None and _prefix_count(G, g, v) > budget:
        raise BudgetError(f"enumeration budget {budget} exhausted")
    pools = {kind: np.array(_letters_for(G, *kind), dtype=np.int64)
             for kind, _ in v.counts}
    slots = [kind for kind, k in v.counts for _ in range(k)]
    codes = _Codes(G, g, len(slots), [(w, sign) for (_, sign), pool in
                                      pools.items() for w in pool.tolist()])
    q, H = G.order, codes.orbits
    mulf, inv = _np_tables(G)
    # a digit's pool entries as (node digit, group value, letter columns)
    handle = (np.arange(H.size.size), H.comm, np.divmod(H.least, q))
    memo = {}
    parts = []
    for order in _multiset_permutations(slots):
        digits = [handle] * g + [(codes.rank[(sign > 0) * q + pools[c, sign]],
                                  pools[c, sign], (pools[c, sign],))
                                 for c, sign in order]
        *head, (_, value, _) = digits or [(None, np.zeros(1, np.int64), None)]
        # the last pool's entries grouped by value, ascending within each
        by = np.argsort(value, kind="stable")
        offsets = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(np.bincount(value, minlength=q), out=offsets[1:])
        radices = [d.size for d, _, _ in head]
        total = prod(radices)
        for start in range(0, total, FILTER_CHUNK):
            idx = np.arange(start, min(start + FILTER_CHUNK, total),
                            dtype=np.int64)
            cols = _digits(idx, radices)
            p = np.zeros_like(idx)
            for (_, val, _), c in zip(head, cols):
                p = mulf[p * q + val[c]]
            need = inv[p]
            cnt = offsets[need + 1] - offsets[need]
            cols = ([c.repeat(cnt) for c in cols]
                    + [by[_ragged(offsets[need], cnt)]])
            if surjective:
                keep = _surjective_mask(G, [x[c] for (_, _, xs), c in
                                            zip(digits, cols) for x in xs],
                                        cols[-1].size, memo)
                cols = [c[keep] for c in cols]
            code = np.zeros(cols[-1].size, dtype=np.int64)
            for (d, _, _), c, w in zip(digits, cols, codes.place):
                code += d[c] * w
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


def _positions(level, codes):
    """Level positions of codes; MoveError when one is off the level."""
    pos = np.searchsorted(level, codes)
    np.minimum(pos, level.size - 1, out=pos)
    if not (level[pos] == codes).all():
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
    punctures' letters and signs), keys blocked by that count.

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
    f = _applier(G, plan)
    digits = _digits(keys, radices)
    # label 0 holds only pair code 0, the identities, which every move
    # fixes, so the zero digits of keys * place count once
    bounds = _blocks(codes.weight(keys * place))
    parts = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        rows = np.arange(b0, b1)
        cols, signs = {}, {}
        for d, digit in zip(range(lo, hi + 1), digits):
            if d < g:
                label = digit[rows]
                cnt = H.size[label]
                pair = H.members[_ragged(H.start[label], cnt)]
                rows = rows.repeat(cnt)
                cols = {s: c.repeat(cnt) for s, c in cols.items()}
                cols[2 * d], cols[2 * d + 1] = np.divmod(pair, q)
            else:  # punctures follow every handle, so nothing repeats after
                cols[d + g] = codes.letter[digit[rows]]
                signs[d - g] = codes.sign[digit[rows]]
        # letters outside the site are read by no letter inside it
        zero = np.zeros(rows.size, dtype=np.int64)
        out, out_signs = f([cols.get(s, zero) for s in range(plan.slots)],
                           [signs.get(j, zero + 1) for j in range(codes.n)])
        target = np.zeros(rows.size, dtype=np.int64)
        for d, radix in zip(range(lo, hi + 1), radices):
            target *= radix
            target += (H.label[out[2 * d] * q + out[2 * d + 1]] if d < g
                       else codes._ranks(out[d + g], out_signs[d - g]))
        parts.append(_distinct(rows * space + target))
    pairs = np.concatenate([np.zeros(0, dtype=np.int64)] + parts)
    src = keys[pairs // space]
    start = np.zeros(space + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=space), out=start[1:])
    return (place, space, start, (pairs % space - src) * place,
            bool((np.diff(start) > 1).any()))


def _sweep(codes, level, plans):
    """Partition a sorted, move-closed node level into orbits under the
    moves of plans, with the handle moves that connect each node.

    Each orbit is seeded at the least node outside the orbits before it
    and grown breadth first: every move's transition tables map whole
    frontier pieces of node codes to the node codes their tuples reach,
    whose level positions np.searchsorted finds.  A move with more than
    one target per key can reach a node twice, so its output is
    deduplicated; every other move permutes the nodes.  Returns (seed
    node codes, orbit sizes in tuples, orbit id of every node).
    """
    tables = [[_transitions(codes, plan, lo, hi, level)
               for lo, hi in _sites(plan, codes.genus)] for plan in plans]
    n_nodes = int(level.size)
    ids = np.full(n_nodes, -1, dtype=np.int32)
    seeds, sizes, reached = [], [], 0
    pos = _next_unvisited(ids, 0)
    while pos < n_nodes:
        oid = len(seeds)
        ids[pos] = oid
        frontier = np.array([pos], dtype=np.int64)
        size = 0
        while frontier.size:
            reached += frontier.size
            size += int(codes.weight(level[frontier]).sum())
            new_parts = []
            for start in range(0, frontier.size, FILTER_CHUNK):
                code = level[frontier[start:start + FILTER_CHUNK]]
                for sites in tables:
                    enc = code
                    for place, space, begin, delta, multi in sites:
                        key = enc // place % space
                        at = begin[key]
                        if multi:
                            cnt = begin[key + 1] - at
                            enc = enc.repeat(cnt) + delta[_ragged(at, cnt)]
                        else:
                            enc = enc + delta[at]
                    enc = _positions(level, enc)
                    enc = enc[ids[enc] < 0]
                    if any(site[-1] for site in sites):
                        enc = _distinct(enc)
                    if enc.size:
                        ids[enc] = oid
                        new_parts.append(enc)
            # the old frontier goes before the new one is joined
            del frontier
            frontier = (np.concatenate(new_parts) if new_parts
                        else np.array([], dtype=np.int64))
        seeds.append(int(level[pos]))
        sizes.append(size)
        pos = _next_unvisited(ids, pos + 1)
    # a move that permutes the nodes reaches no node twice, so every node
    # is counted once unless the level or the catalog is wrong
    if reached != n_nodes:
        raise MoveError("level is not move-closed (catalog/filter bug)")
    # Each seed is the least node outside the earlier orbits, so its
    # least tuple is its orbit's, the orbits come in representative
    # order, and (orbits are closed under conjugation) each
    # representative is its own canonical form.
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
    catalog orbits: build_level's nodes, swept with the catalog's forward
    moves (_forward_moves) but its handle moves, which must twist every
    handle (MoveError otherwise).

    BudgetError, before the level is allocated, when build_level would
    walk more than budget prefixes, closed or punctured.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    if not ({(m.kind.removesuffix("Inv"), m.index) for m in catalog}
            >= {(kind, i) for kind in _HANDLE_KINDS for i in range(g)}):
        raise MoveError("the catalog lacks a handle move on some handle")
    codes, level = build_level(G, g, v, True, budget)
    plans = [move_plan(G, m, g, codes.n) for m in _forward_moves(G, catalog)
             if m.kind.removesuffix("Inv") not in _HANDLE_KINDS]
    seeds, sizes, ids = _sweep(codes, level, plans)
    reps = codes.tuples(codes.tuple_codes(np.array(seeds, dtype=np.int64),
                                          least=True))
    table = FastOrbitTable(MOVE_SET_TAG, tuple(reps), tuple(sizes), {},
                           codes, ids, level)
    return table, sum(sizes)


def closed_orbit_scan(G, g, catalog, budget=None):
    """orbit_scan of the closed genus-g level: (FastOrbitTable, number of
    tuples in the level).  A name of its own because
    perfbench/trace_job.py times closed scans through it."""
    return orbit_scan(G, g, BranchData(()), catalog, budget)

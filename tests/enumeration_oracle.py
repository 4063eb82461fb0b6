"""Reference enumeration of levels: the Python walks that
covers.enumerate_tuples ran before levels were built as int64 codes.
They build one BranchedTuple per kept candidate, so they are slow but
plainly right; the tests compare the vectorized level with them.
walked_prefixes counts the prefixes fastorbits.build_level walks by
walking the slot orders, for the budget tests."""

from math import prod

from schur_orbits.covers import (
    BranchedTuple,
    _letters_for,
    _multiset_permutations,
    is_surjective,
)
from schur_orbits.fastorbits import _handle_orbits


def _commutator_preimages(G):
    """Map element -> list of (a, b) with [a,b] = that element."""
    table = {}
    for a in range(G.order):
        for b in range(G.order):
            table.setdefault(G.commutator(a, b), []).append((a, b))
    return table


def _handle_prefixes(G, g):
    """All 2g-letter handle assignments with their commutator-word
    product, lexicographic."""
    if g == 0:
        yield (), 0
        return
    for handles, hprod in _handle_prefixes(G, g - 1):
        for a in range(G.order):
            for b in range(G.order):
                yield handles + ((a, b),), G.mul[hprod][G.commutator(a, b)]


def _product_lex(pools):
    if not pools:
        yield ()
        return
    head, rest = pools[0], pools[1:]
    for x in head:
        for tail in _product_lex(rest):
            yield (x,) + tail


def _closed_walk(G, g, surjective):
    """The closed level: the last handle pair is solved from the relation
    through the commutator preimages."""
    if g == 0:
        t = BranchedTuple(G, 0, (), ())
        return [t] if not surjective or G.order == 1 else []
    results = []
    preim = _commutator_preimages(G)
    for handles, hprod in _handle_prefixes(G, g - 1):
        # last handle must contribute the inverse of the prefix
        for a, b in preim.get(G.inv[hprod], ()):
            t = BranchedTuple(G, g, handles + ((a, b),), ())
            if surjective and not is_surjective(t):
                continue
            results.append(t)
    results.sort()
    return results


def oracle_enumerate(G, g, v, surjective=True):
    """All BranchedTuples of genus g with branch data v, in key order.
    With n >= 1 punctures the last puncture letter is solved from the
    relation; with none, see _closed_walk."""
    slots = []
    for (cid, sign), k in v.counts:
        slots.extend([(cid, sign)] * k)
    if not slots:
        return _closed_walk(G, g, surjective)
    results = []
    for pattern in _multiset_permutations(slots):
        letter_pools = [_letters_for(G, cid, sign) for cid, sign in pattern[:-1]]
        last_cid, last_sign = pattern[-1]
        last_pool = set(_letters_for(G, last_cid, last_sign))
        for handles, hprod in _handle_prefixes(G, g):
            for free in _product_lex(letter_pools):
                p = hprod
                for w in free:
                    p = G.mul[p][w]
                w_last = G.inv[p]
                if w_last == 0 or w_last not in last_pool:
                    continue
                punct = tuple(
                    (w, s) for w, (c, s) in zip(free + (w_last,), pattern)
                )
                t = BranchedTuple(G, g, handles, punct)
                if surjective and not is_surjective(t):
                    continue
                results.append(t)
    results.sort()
    return results


def walked_prefixes(G, g, v):
    """The prefixes build_level walks, order by order: K^g handle-orbit
    labels times the pool of every slot but the last, which is solved;
    a closed level solves its last handle instead (K^{g-1}, and the
    empty prefix at g = 0)."""
    K = _handle_orbits(G).size.size
    slots = [kind for kind, k in v.counts for _ in range(k)]
    if not slots:
        return K ** (g - 1) if g else 1
    return sum(K ** g * prod(len(_letters_for(G, *kind)) for kind in order[:-1])
               for order in _multiset_permutations(slots))

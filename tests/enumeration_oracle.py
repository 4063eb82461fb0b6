"""Reference enumeration of punctured levels: the Python walk that
covers.enumerate_tuples ran for n >= 1 punctures before levels were
built as int64 codes.  It builds one BranchedTuple per kept candidate
and checks the budget candidate by candidate, so it is slow but plainly
right; the tests compare the vectorized level with it."""

from schur_orbits.covers import (
    BranchedTuple,
    BudgetError,
    _handle_prefixes,
    _letters_for,
    _multiset_permutations,
    is_surjective,
)


def _product_lex(pools):
    if not pools:
        yield ()
        return
    head, rest = pools[0], pools[1:]
    for x in head:
        for tail in _product_lex(rest):
            yield (x,) + tail


def oracle_enumerate(G, g, v, surjective=True, budget=None):
    """All BranchedTuples of genus g with branch data v (n >= 1), in key
    order; the last puncture letter is solved from the relation, and
    budget caps the candidate words examined."""
    slots = []
    for (cid, sign), k in v.counts:
        slots.extend([(cid, sign)] * k)
    assert slots, "the oracle covers punctured levels only"
    results = []
    examined = 0
    for pattern in _multiset_permutations(slots):
        letter_pools = [_letters_for(G, cid, sign) for cid, sign in pattern[:-1]]
        last_cid, last_sign = pattern[-1]
        last_pool = set(_letters_for(G, last_cid, last_sign))
        for handles, hprod in _handle_prefixes(G, g):
            for free in _product_lex(letter_pools):
                examined += 1
                if budget is not None and examined > budget:
                    raise BudgetError(f"enumeration budget {budget} exhausted")
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

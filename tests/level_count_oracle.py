"""Exact level sizes without enumeration: the Frobenius-Mednykh count,
done without a character table.

For one order of the slot kinds, the genus-g tuples with letters in a
subgroup H number the value at 1 of

    delta_1 * K_H * ... * K_H (g times) * 1_{P_1 & H} * ... * 1_{P_n & H},

where * is convolution over G, K_H(x) = #{(a, b) in H^2 : [a, b] = x}
and P_j is slot j's letter pool.  Every factor is a class function of
H, so the value is the same for every slot order.  Surjective counts
follow by Moebius inversion over the subgroup lattice (P. Hall, 1936):
the tuples generating H are those in H less those generating a proper
subgroup of H.
"""

from math import factorial

from schur_orbits.covers import _letters_for
from schur_orbits.groups import closure


def subgroups(G):
    """Every subgroup of G as a frozenset, smallest first."""
    found = {frozenset([0])}
    frontier = list(found)
    while frontier:
        nxt = []
        for H in frontier:
            for x in range(G.order):
                if x not in H:
                    K = frozenset(closure(G, list(H) + [x]))
                    if K not in found:
                        found.add(K)
                        nxt.append(K)
        frontier = nxt
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def _convolve(G, f, h):
    out = [0] * G.order
    for x, fx in enumerate(f):
        if fx:
            for y, hy in enumerate(h):
                if hy:
                    out[G.mul[x][y]] += fx * hy
    return out


def _count_in(G, H, g, pools):
    """Tuples of one slot order whose letters all lie in H."""
    f = [0] * G.order
    f[0] = 1
    K = [0] * G.order
    for a in H:
        for b in H:
            K[G.commutator(a, b)] += 1
    for _ in range(g):
        f = _convolve(G, f, K)
    for pool in pools:
        f = _convolve(G, f, [int(x in pool and x in H) for x in range(G.order)])
    return f[0]


def level_count(G, g, v, surjective=True):
    """Number of genus-g tuples with branch data v (surjective ones only
    if asked)."""
    pools = [set(_letters_for(G, cid, sign))
             for (cid, sign), k in v.counts for _ in range(k)]
    orders = factorial(len(pools))
    for _, k in v.counts:
        orders //= factorial(k)
    if not surjective:
        return orders * _count_in(G, range(G.order), g, pools)
    generating = {}
    for H in subgroups(G):
        generating[H] = _count_in(G, H, g, pools) - sum(
            n for K, n in generating.items() if K < H)
    return orders * generating[frozenset(range(G.order))]

"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Numbering is
breadth-first word order from the generators (ties broken by generator
input order), so element indices, conjugacy class ids and everything
derived from them are reproducible across runs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .intlinalg import PresentedAbelianGroup, cokernel

# SHA-256 for the group, source and cache-key digests.  Importing hashlib
# maps OpenSSL's libcrypto, 3.5 MiB of peak RSS in every CLI process; the
# built-in module that hashlib itself falls back to gives the same digests.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython <= 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "DomainError",
    "FiniteGroup",
    "build_group",
    "centralizer",
    "inn_order_on_class",
    "abelianization",
    "generates",
    "commutator_length",
    "quotient_by_normal_closure",
]

DEFAULT_MAX_ORDER = 120


class DomainError(ValueError):
    """Input the mathematics rejects: a malformed group, tuple or
    selector, a move outside its range, a branch class outside C.  The
    CLI reports every subclass as exit 1, kind "domain"."""


class GroupBuildError(DomainError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple  # tuple of row tuples
    inv: tuple
    class_of: tuple
    class_reps: tuple
    generators: tuple  # element indices of the defining generators
    generator_spec: str = field(compare=False)
    # tables other modules derive from this group, under their own keys
    cache: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def conj(self, x, g):
        """g x g^{-1}"""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def word(self, letters):
        p = 0
        for x in letters:
            p = self.mul[p][x]
        return p

    def commutator(self, a, b):
        return self.word([a, b, self.inv[a], self.inv[b]])

    def element_order(self, x):
        k, p = 1, x
        while p != 0:
            p = self.mul[p][x]
            k += 1
        return k

    def class_members(self, cid):
        return tuple(x for x in range(self.order) if self.class_of[x] == cid)

    def is_abelian(self):
        return len(self.class_reps) == self.order

    @property
    def digest(self):
        blob = json.dumps([list(r) for r in self.mul], separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:16]

    def __hash__(self):
        return hash((self.order, self.mul))


def _closure_and_bfs_order(n_points, perms):
    """Close a set of permutations under composition, numbering elements
    in BFS word order from the generators."""
    ident = tuple(range(n_points))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(p[g[i]] for i in range(n_points))  # p after g
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    return elems, index


def _validate_table(mul, exhaustive_cap=24):
    n = len(mul)
    for row in mul:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise GroupBuildError("table is not a square array of valid indices")
    if any(mul[0][x] != x or mul[x][0] != x for x in range(n)):
        raise GroupBuildError("index 0 is not an identity")
    inv = [None] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == 0:
                if mul[y][x] != 0:
                    raise GroupBuildError("one-sided inverse found")
                inv[x] = y
                break
        if inv[x] is None:
            raise GroupBuildError(f"element {x} has no inverse")
    if n <= exhaustive_cap:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0)
        triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(5000)]
    for x, y, z in triples:
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            raise GroupBuildError(f"non-associative at ({x},{y},{z})")
    return inv


def _conjugacy_data(mul, inv):
    n = len(mul)
    class_of = [-1] * n
    reps = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        stack = [x]
        class_of[x] = cid
        while stack:
            y = stack.pop()
            for g in range(n):
                z = mul[mul[g][y]][inv[g]]
                if class_of[z] < 0:
                    class_of[z] = cid
                    stack.append(z)
    return class_of, reps


def build_group(spec, max_order=DEFAULT_MAX_ORDER):
    """Build a FiniteGroup from {"permutations": [...]} (0-indexed image
    lists on a common point set) or {"cayley_table": [[...], ...]}.
    """
    if "permutations" in spec:
        perms = [tuple(p) for p in spec["permutations"]]
        if perms:
            n_points = len(perms[0])
            for p in perms:
                if len(p) != n_points or sorted(p) != list(range(n_points)):
                    raise GroupBuildError(f"not a bijection on {n_points} points: {p}")
        else:
            n_points = 1
        elems, index = _closure_and_bfs_order(n_points, perms)
        order = len(elems)
        if order > max_order:
            raise GroupBuildError(f"group order {order} exceeds cap {max_order}")
        mul = tuple(
            tuple(index[tuple(p[q[i]] for i in range(n_points))] for q in elems)
            for p in elems
        )
        gens = tuple(sorted({index[p] for p in perms if index[p] != 0}))
        gspec = json.dumps({"permutations": [list(p) for p in perms]}, sort_keys=True)
    elif "cayley_table" in spec:
        table = [list(r) for r in spec["cayley_table"]]
        order = len(table)
        if order == 0:
            raise GroupBuildError("empty table")
        if order > max_order:
            raise GroupBuildError(f"group order {order} exceeds cap {max_order}")
        if any(len(r) != order or any(x not in range(order) for x in r)
               for r in table):
            raise GroupBuildError("cayley table is not a square table of "
                                  "element indices")
        # locate the identity, then renumber so it sits at index 0
        ident = None
        for e in range(order):
            if all(table[e][x] == x and table[x][e] == x for x in range(order)):
                ident = e
                break
        if ident is None:
            raise GroupBuildError("table has no identity element")
        old = [ident] + [x for x in range(order) if x != ident]
        pos = {o: i for i, o in enumerate(old)}
        mul = tuple(tuple(pos[table[a][b]] for b in old) for a in old)
        gens = tuple(range(1, order))
        gspec = json.dumps({"cayley_table": table}, sort_keys=True)
    else:
        raise GroupBuildError("spec needs 'permutations' or 'cayley_table'")

    inv = _validate_table([list(r) for r in mul])
    class_of, reps = _conjugacy_data(mul, inv)
    # use a minimal generating subsequence for table-built groups so that
    # GlobalConj catalogs stay small
    G = FiniteGroup(
        order=order,
        mul=mul,
        inv=tuple(inv),
        class_of=tuple(class_of),
        class_reps=tuple(reps),
        generators=gens,
        generator_spec=gspec,
    )
    if "cayley_table" in spec and order > 1:
        G = FiniteGroup(
            order=order,
            mul=mul,
            inv=tuple(inv),
            class_of=tuple(class_of),
            class_reps=tuple(reps),
            generators=minimal_generating_sequence(G),
            generator_spec=gspec,
        )
    return G


def closure(G, S):
    """Subgroup generated by S, as a sorted tuple of elements."""
    seen = {0}
    frontier = [0]
    S = [s for s in S]
    while frontier:
        nxt = []
        for x in frontier:
            for s in S:
                y = G.mul[x][s]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                y = G.mul[s][x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def generates(G, S):
    return len(closure(G, S)) == G.order


def minimal_generating_sequence(G):
    """A short generating sequence found greedily (not guaranteed minimum,
    but deterministic and small)."""
    if G.order == 1:
        return ()
    gens = []
    have = {0}
    while len(have) < G.order:
        best = None
        for x in range(G.order):
            if x in have:
                continue
            c = closure(G, gens + [x])
            if best is None or len(c) > best[1]:
                best = (x, len(c), c)
                if len(c) == G.order:
                    break
        gens.append(best[0])
        have = set(best[2])
    return tuple(gens)


def centralizer(G, x):
    return tuple(y for y in range(G.order) if G.mul[y][x] == G.mul[x][y])


def inn_order_on_class(G, c):
    """Order of the permutation x -> c x c^{-1} of the conjugacy class of c."""
    members = G.class_members(G.class_of[c])
    k = 1
    perm = {x: G.conj(x, c) for x in members}
    cur = dict(perm)
    while any(cur[x] != x for x in members):
        cur = {x: perm[cur[x]] for x in members}
        k += 1
    return k


def derived_subgroup(G):
    comms = {G.commutator(a, b) for a in range(G.order) for b in range(G.order)}
    return closure(G, comms)


def _coset_table(G, subgroup_elems):
    """Map element -> coset id for a (normal) subgroup."""
    sub = set(subgroup_elems)
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        for h in sub:
            coset_of[G.mul[x][h]] = cid
    return coset_of, reps


def quotient_by_normal_closure(G, S):
    """G / <<S>> as a FiniteGroup, plus the projection map.

    S is any element set; its normal closure is taken first.
    """
    closure_seed = set()
    for s in S:
        for g in range(G.order):
            closure_seed.add(G.conj(s, g))
    K = closure(G, closure_seed) if closure_seed else (0,)
    coset_of, reps = _coset_table(G, K)
    q = len(reps)
    table = [[coset_of[G.mul[reps[a]][reps[b]]] for b in range(q)] for a in range(q)]
    Q = build_group({"cayley_table": table}, max_order=max(DEFAULT_MAX_ORDER, q))
    # build_group may renumber; reps[0] = some element of K so coset 0 holds
    # the identity and index 0 survives renumbering
    return Q, tuple(coset_of)


def abelianization(G):
    """(G_ab as PresentedAbelianGroup, projection element -> coordinates).

    Works from a generating sequence: relation vectors are the Schreier
    generators of the kernel of the free abelian group on the generators.
    """
    gens = list(G.generators) or []
    if not gens and G.order > 1:
        gens = list(minimal_generating_sequence(G))
    m = len(gens)
    if m == 0:
        A = cokernel([], ambient_dim=0)
        return A, lambda x: ()
    # BFS words: vector of generator exponents reaching each element
    words = {0: [0] * m}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i, s in enumerate(gens):
                y = G.mul[x][s]
                if y not in words:
                    w = list(words[x])
                    w[i] += 1
                    words[y] = w
                    nxt.append(y)
        frontier = nxt
    # Schreier relations: word(x) + e_i - word(x*s_i) dies in G_ab
    rel_cols = []
    for x in range(G.order):
        for i, s in enumerate(gens):
            y = G.mul[x][s]
            col = [words[x][k] - words[y][k] for k in range(m)]
            col[i] += 1
            if any(col):
                rel_cols.append(col)
    M = [[col[i] for col in rel_cols] for i in range(m)]
    A = cokernel(M, ambient_dim=m)

    table = {x: A.to_coords(words[x]) for x in range(G.order)}

    def proj(x):
        return table[x]

    return A, proj


def commutator_length(G, x):
    """Minimal number of commutators multiplying to x; None if x is not
    in the derived subgroup."""
    if x == 0:
        return 0
    comms = sorted({G.commutator(a, b) for a in range(G.order) for b in range(G.order)})
    reached = {0}
    frontier = {0}
    l = 0
    while frontier:
        l += 1
        nxt = set()
        for p in frontier:
            for c in comms:
                q = G.mul[p][c]
                if q == x:
                    return l
                if q not in reached:
                    reached.add(q)
                    nxt.add(q)
        frontier = nxt
    return None

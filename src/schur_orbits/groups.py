"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Numbering is
breadth-first word order from the generators (ties broken by generator
input order), so element indices, conjugacy class ids and everything
derived from them are reproducible across runs.
"""

from __future__ import annotations

import json
from functools import cached_property

from .records import Frozen

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
    "BudgetError",
    "DomainError",
    "FiniteGroup",
    "build_group",
    "centralizer",
    "abelianization",
    "generates",
]

DEFAULT_MAX_ORDER = 120
DEFAULT_BUDGET = 2_000_000


class DomainError(ValueError):
    """Input the mathematics rejects: a malformed group, tuple or
    selector, a move outside its range, a branch class outside C.  The
    CLI reports every subclass as exit 1, kind "domain"."""


class BudgetError(RuntimeError):
    """A search or level outgrew its budget; the CLI reports it as exit
    2, kind "budget"."""


class GroupBuildError(DomainError):
    pass


class FiniteGroup(Frozen):
    """mul is a tuple of row tuples, generators the element indices of
    the defining generators.  perms holds the permutation of each element
    of a permutation-defined group, by index, and is None for a Cayley
    table.  cache holds the tables other modules derive from this group,
    under their own keys; equality leaves it and perms out."""

    _fields = ("order", "mul", "inv", "class_of", "class_reps", "generators")

    def __init__(self, order, mul, inv, class_of, class_reps, generators,
                 perms):
        vars(self).update(order=order, mul=mul, inv=inv, class_of=class_of,
                          class_reps=class_reps, generators=generators,
                          perms=perms, cache={})

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

    @cached_property
    def digest(self):
        blob = json.dumps([list(r) for r in self.mul], separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:16]

    def __hash__(self):
        return hash((self.order, self.mul))


def _closure_and_bfs_order(n_points, perms, cap=None):
    """Close a set of permutations under composition, numbering elements
    in BFS word order from the generators.  With a cap, stop once
    cap + 1 elements are found, so a group past the cap is never closed
    in full."""
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
                    if cap is not None and len(elems) > cap:
                        return elems, index
        frontier = nxt
    return elems, index


def _right_generators(mul):
    """A greedy S whose right products, starting from 0, reach every
    element of the table mul."""
    S, seen = [], {0}
    for s in range(len(mul)):
        if s not in seen:
            S.append(s)
            todo = list(seen)
            while todo:
                row = mul[todo.pop()]
                new = {row[t] for t in S} - seen
                seen |= new
                todo += new
    return S


def _validate_table(mul, S):
    """The inverses of mul, after checking that it is a group table with
    identity 0, S a set whose right products, starting from 0, reach
    every element.  Associativity is Light's test, exact in n^2 |S|
    checks: (x y) s = x (y s) for all x, y and every s in S.  The set T
    of the s satisfying it contains 0 and is closed under the product:
    for s and t in T, (x y)(s t) = ((x y) s) t = (x (y s)) t
    = x ((y s) t) = x (y (s t)).  Every element is ((0 s_1) s_2) ... s_k
    with the s_i in S, so T is everything."""
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
    for s in S:
        col = [row[s] for row in mul]
        for x, row in enumerate(mul):
            for y, (xy, ys) in enumerate(zip(row, col)):
                if col[xy] != row[ys]:
                    raise GroupBuildError(f"non-associative at ({x},{y},{s})")
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


def _int_rows(spec, key):
    """spec[key] as a list of tuples: an array of arrays whose entries
    are integers, not floats or booleans."""
    rows = spec[key]
    if not (isinstance(rows, (list, tuple)) and all(
            isinstance(r, (list, tuple)) and all(type(x) is int for x in r)
            for r in rows)):
        raise GroupBuildError(f"{key} must be an array of arrays of integers")
    return [tuple(r) for r in rows]


def build_group(spec, max_order=DEFAULT_MAX_ORDER):
    """Build a FiniteGroup from {"permutations": [...]} (0-indexed image
    lists on a common point set) or {"cayley_table": [[...], ...]}.

    The generators of a permutation group are its nonidentity generator
    images; those of a Cayley table are the greedy _right_generators set
    that _validate_table checks associativity on.  A permutation group of
    more than max_order elements is rejected once its closure finds
    element max_order + 1, before it is closed.
    """
    if "permutations" in spec:
        perms = _int_rows(spec, "permutations")
        if perms:
            n_points = len(perms[0])
            for p in perms:
                if len(p) != n_points or sorted(p) != list(range(n_points)):
                    raise GroupBuildError(f"not a bijection on {n_points} points: {p}")
        else:
            n_points = 1
        elems, index = _closure_and_bfs_order(n_points, perms, max_order)
        order = len(elems)
        if order > max_order:
            raise GroupBuildError(f"group order exceeds cap {max_order}: "
                                  f"more than {max_order} elements")
        mul = tuple(
            tuple(index[tuple(p[q[i]] for i in range(n_points))] for q in elems)
            for p in elems
        )
        gens = tuple(sorted({index[p] for p in perms if index[p] != 0}))
        elems = tuple(elems)
    elif "cayley_table" in spec:
        table = _int_rows(spec, "cayley_table")
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
        gens = tuple(_right_generators(mul))
        elems = None
    else:
        raise GroupBuildError("spec needs 'permutations' or 'cayley_table'")

    inv = _validate_table(mul, gens)
    class_of, reps = _conjugacy_data(mul, inv)
    return FiniteGroup(order, mul, tuple(inv), tuple(class_of), tuple(reps),
                       gens, elems)


def closure(G, S):
    """Subgroup generated by S, as a sorted tuple of elements.

    Right products alone reach it: in a finite group the monoid that S
    generates is already the subgroup, since s^-1 = s^(ord s - 1)."""
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
        frontier = nxt
    return tuple(sorted(seen))


def generates(G, S):
    return len(closure(G, S)) == G.order


def centralizer(G, x):
    return tuple(y for y in range(G.order) if G.mul[y][x] == G.mul[x][y])


def abelianization(G):
    """(G_ab as PresentedAbelianGroup, projection element -> coordinates).

    Works from a generating sequence: relation vectors are the Schreier
    generators of the kernel of the free abelian group on the generators.
    intlinalg is imported here, so that a process that never needs G_ab
    (a closed orbits level, or one with a zero net branch vector) never
    loads it.
    """
    from .intlinalg import cokernel

    gens = list(G.generators)
    m = len(gens)
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
    # Schreier relations: word(x) + e_i - word(x*s_i) dies in G_ab, which
    # |G| kills
    rels = []
    for x in range(G.order):
        for i, s in enumerate(gens):
            rel = {k: a - b for k, (a, b) in
                   enumerate(zip(words[x], words[G.mul[x][s]]))}
            rel[i] += 1
            rels.append(rel)
    A = cokernel(rels, m, G.order)

    table = {x: A.to_coords(words[x]) for x in range(G.order)}

    def proj(x):
        return table[x]

    return A, proj

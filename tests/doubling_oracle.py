"""The doubling construction of the difference class, kept as an
independent oracle for the lifting invariant.

The oracle normalizes the second tuple's puncture letters to the first
tuple's by a move search, glues the two covers along their branch disks
into a closed unbranched double, and reads the double's Schur class
modulo C-tori from its polygon 2-chain (`h2_oracle.unbranched_cycle`,
classified by `H2Group.cycle_class`), not from lifts.  Different gluing
choices for the connecting tubes differ by C-tori, so the class is well
defined exactly in M(G)_C.

_Extension is the reference for homology.lifting_invariant: the same
product of lifts, taken in M(G)_C x G with the cocycle projected to
M(G)_C entry by entry and every conjugate lift checked against the
others, where lifting_invariant multiplies in H2 x G and projects once.
"""

from schur_orbits.branched_schur import DoublingError, normalize_letters
from schur_orbits.covers import BranchedTuple
from schur_orbits.homology import h2_group, m_g_c

from h2_oracle import unbranched_cycle


def _mirror_handles(handles):
    """Orientation reversal: reverse handle order, swap each pair."""
    return tuple((b, a) for a, b in reversed(handles))


def double(t, t2):
    """Closed unbranched tuple obtained by gluing t to the orientation
    reversal of t2 along their branch disks.

    Requires identical puncture letter/sign lists.  The n - 1 connecting
    tubes become handles (B_j, 1) carrying the based boundary words
    B_j = [a_1,b_1]...[a_g,b_g] w_1 ... w_j and trivial tube monodromy;
    any other tube monodromy choice shifts the class by a C-torus only.
    """
    G = t.group
    if t2.group != G:
        raise DoublingError("group mismatch")
    if t.genus != t2.genus or t.punctures != t2.punctures:
        raise DoublingError("doubling needs identical genus and puncture lists")
    n = t.n
    if n == 0 and t.genus == 0:
        raise DoublingError("nothing to double: closed genus-0 tuple")
    tubes = []
    p = 0
    for a, b in t.handles:
        p = G.mul[p][G.commutator(a, b)]
    for j in range(n - 1):
        p = G.mul[p][t.punctures[j][0]]
        tubes.append((p, 0))
    handles = t.handles + tuple(tubes) + _mirror_handles(t2.handles)
    out = BranchedTuple(G, len(handles), handles, ())
    if out.relation_product() != 0:
        raise DoublingError("doubled tuple violates the relation (bug)")
    return out


def doubling_class(t, t2, class_ids, budget=2_000):
    """M(G)_C coordinates of the double of t and t2, after t2's letters
    are normalized to t's; raises NormalizationBudgetError when the
    search does not reach them within the budget."""
    G = t.group
    s2 = normalize_letters(t2, t.punctures, budget=budget)
    _, proj = m_g_c(G, class_ids)
    d = double(t, s2)
    return proj(h2_group(G).cycle_class(unbranched_cycle(G, d.handles)))


class _Extension:
    """The central extension E = M(G)_C x G, (a, x)(b, y) =
    (a + b + f(x, y), xy), f projected to M(G)_C.  A representative r of
    a class of C lifts to (0, r), its conjugates to the conjugates of that
    lift: two conjugators differ by z centralizing r, and the lifts by the
    torus class of (r, z), 0 in M(G)_C.  Then

        Lambda(t) = [a~_1, b~_1] ... [a~_g, b~_g] l(c_1)^{o_1} ... l(c_n)^{o_n}

    with c_j the branch element of puncture j lies in M(G)_C, and it is
    constant on move orbits (Serre, C. R. Acad. Sci. Paris 311, 1990;
    Fried and Voelklein, Math. Ann. 290, 1991)."""

    def __init__(self, G, class_ids):
        M, proj = m_g_c(G, class_ids)
        self.group, self.M, self.classes = G, M, sorted(set(class_ids))
        self._f = [[proj(v) for v in row] for row in h2_group(G).f]
        self._zero = M.zero()
        self._lift = {}
        for cid in self.classes:
            r = (self._zero, G.class_reps[cid])
            for x in range(G.order):
                xt = (self._zero, x)
                a, y = self.mul(self.mul(xt, r), self.inv(xt))
                if self._lift.setdefault(y, a) != a:
                    raise RuntimeError(
                        f"lift of element {y} depends on the conjugator (bug)")

    def mul(self, p, q):
        (a, x), (b, y) = p, q
        f = self._f[x][y]
        return (tuple((u + v + w) % d for u, v, w, d
                      in zip(a, b, f, self.M.moduli)),
                self.group.mul[x][y])

    def inv(self, p):
        a, x = p
        f = self._f[x][self.group.inv[x]]
        return (tuple(-(u + w) % d for u, w, d in zip(a, f, self.M.moduli)),
                self.group.inv[x])

    def invariant(self, t):
        """Lambda(t) as coordinates in M(G)_C."""
        G = self.group
        acc = (self._zero, 0)
        for a, b in t.handles:
            A, B = (self._zero, a), (self._zero, b)
            acc = self.mul(acc, self.mul(self.mul(A, B),
                                         self.mul(self.inv(A), self.inv(B))))
        for j, (w, o) in enumerate(t.punctures):
            c = w if o == 1 else G.inv[w]
            if c not in self._lift:
                raise DoublingError(
                    f"branch class {G.class_of[c]} of puncture {j} is not "
                    f"in C = {self.classes}")
            lc = (self._lift[c], c)
            acc = self.mul(acc, lc if o == 1 else self.inv(lc))
        a, x = acc
        if x != 0:
            raise DoublingError("tuple violates the surface relation")
        return a

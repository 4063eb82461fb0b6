"""The doubling construction of the difference class, kept as an
independent oracle for the lifting invariant.

The oracle normalizes the second tuple's puncture letters to the first
tuple's by a move search, glues the two covers along their branch disks
into a closed unbranched double, and reads the double's Schur class
modulo C-tori from its polygon 2-chain (`h2_oracle.unbranched_cycle`,
classified by `H2Group.cycle_class`), not from lifts.  Different gluing
choices for the connecting tubes differ by C-tori, so the class is well
defined exactly in M(G)_C.
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

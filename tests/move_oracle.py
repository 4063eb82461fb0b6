"""Moves the catalog does not list, and a reader of move words.

REMOVED_WORDS holds, in the row format of moves._MOVE_WORDS, the inverse
kinds of Braid, TwistA, TwistB and ChainTwist, HandleSwap (the handle
interchange, a product of Lickorish twists) and HandleBlockTwist (the
twist along a handle's boundary, (T_a T_b)^6 by the chain relation).
The catalog's moves generate all six, so each must send every tuple of
a level into its own catalog orbit.  word_columns reads a row of either
table token by token, on numpy columns of many tuples; word_move runs
it on one tuple.
"""

import numpy as np

from schur_orbits.covers import BranchedTuple
from schur_orbits.moves import _MOVE_WORDS, Move, _site_slots

REMOVED_WORDS = {
    "BraidInv": ("punctures", {"w1": "w2", "w2": "w2' w1 w2"},
                 {"w1": "w2", "w2": "w1"}),
    "TwistAInv": ("handle", {"b": "b a'"}, {}),
    "TwistBInv": ("handle", {"a": "a b'"}, {}),
    "ChainTwistInv": ("handles", {"a1": "a2' a1 a2",
                                  "b1": "a2' a1' a2 a1 b1 a1' a2",
                                  "a2": "a2' a1' a2 a1 a2",
                                  "b2": "b2 a2' a2' a1 a2"}, {}),
    "HandleSwap": ("handles", {"u": "a1 b1 a1' b1'", "a1": "u a2 u'",
                               "b1": "u b2 u'", "a2": "a1", "b2": "b1"}, {}),
    "HandleBlockTwist": ("handle", {"u": "a b a' b'", "a": "u a u'",
                                    "b": "u b u'"}, {}),
}

# a catalog kind -> the removed kind that undoes it at the same index
INVERSE_KIND = {"Braid": "BraidInv", "TwistA": "TwistAInv",
                "TwistB": "TwistBInv", "ChainTwist": "ChainTwistInv"}


def removed_moves(g, n):
    """Every removed move at every index it has on a genus-g, n-puncture
    tuple."""
    count = {"punctures": n - 1, "handle": g, "handles": g - 1}
    return [Move(kind, i) for kind, (site, _, _) in REMOVED_WORDS.items()
            for i in range(count[site])]


def word_columns(G, m, g, n, letters, signs):
    """(letters slot by slot, puncture signs) after move m, each a numpy
    column of many genus-g, n-puncture tuples: m's row of REMOVED_WORDS
    or _MOVE_WORDS read token by token with G's multiplication table,
    its site names bound to slots by moves._site_slots."""
    q = G.order
    mul = np.array(G.mul, dtype=np.int64).ravel()
    inv = np.array(G.inv, dtype=np.int64)
    site, words, moved = {**_MOVE_WORDS, **REMOVED_WORDS}[m.kind]
    new, new_signs = list(letters), list(signs)
    for names in _site_slots(site, m.index, g, n):
        env = {name: letters[slot] for name, slot in names.items()}
        env["x"] = np.full_like(letters[0], m.element)
        for name, text in words.items():
            p = np.zeros_like(letters[0])
            for tok in text.split():
                p = mul[p * q + (inv[env[tok[:-1]]] if tok.endswith("'")
                                 else env[tok])]
            if name in names:
                new[names[name]] = p  # later words still read the old letter
            else:
                env[name] = p
        for dst, src in moved.items():
            new_signs[names[dst] - 2 * g] = signs[names[src] - 2 * g]
    return new, new_signs


def moved_level(G, g, m, tuples):
    """Move m applied to each of a nonempty list of genus-g tuples of one
    shape, all at once as numpy columns."""
    rows = np.array([t.flat[0] + t.flat[1] for t in tuples], dtype=np.int64)
    L, n = 2 * g, len(tuples[0].punctures)
    letters, signs = word_columns(G, m, g, n, list(rows[:, :L + n].T),
                                  list(rows[:, L + n:].T))
    out = np.stack(letters + signs, axis=1) if letters else rows
    return [BranchedTuple(G, g, tuple(zip(r[0:L:2], r[1:L:2])),
                          tuple(zip(r[L:L + n], r[L + n:])))
            for r in out.tolist()]


def word_move(m, t):
    """Move m applied to one tuple t (word_columns on one row)."""
    return moved_level(t.group, t.genus, m, [t])[0]

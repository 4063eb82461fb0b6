"""H2 the direct way, kept as an oracle for `homology.h2_group`.

The kernel coordinates W are rows rank.. of the exact Smith form's
V^{-1} of d2, in Python integers, reduced mod |G| afterwards.  The image
lattice absorbs the d3 images of all (|G|-1)^3 columns in lexicographic
order.  `h2_group` keeps V^{-1} mod |G| throughout and absorbs the
generator columns only, in another order.  Both must give the same W
and the same image lattice, and `_echelon_cokernel`, shared by both,
presents a lattice by its reduced Howell form, so the presentations
must be equal too.
"""

import numpy as np

from schur_orbits.homology import (
    H2Group,
    _absorb,
    _d3_sparse,
    _echelon_cokernel,
    boundary_matrix,
)
from schur_orbits.intlinalg import snf_with_inverse

CHUNK = 256  # d3 columns imaged at a time


def h2_oracle(G):
    N, m = G.order, G.order - 1
    res = snf_with_inverse(boundary_matrix(G, 2))
    W = np.array([[x % N for x in row] for row in res.Vinv[res.rank:]],
                 dtype=np.int64).reshape(-1, m * m)
    K = len(W)
    H, piv = np.zeros((K, K), dtype=np.int64), [N] * K
    idx, coeff = _d3_sparse(G)
    for s in range(0, len(idx), CHUNK):
        ci, cc = idx[s:s + CHUNK], coeff[s:s + CHUNK]
        images = sum(W[:, ci[:, k]] * cc[:, k] for k in range(4)) % N
        for v in images.T[images.any(axis=0)]:
            _absorb(H, piv, v, N)
    return H2Group(G, _echelon_cokernel(H, piv, N), W)

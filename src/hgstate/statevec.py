"""Dense four-qubit states, nonlocal stabilizers, and cut entropies.

A code from :mod:`hgstate.hypercore` expands to 16 real amplitudes, all
equal to 1/4 in magnitude, with the sign pattern given by the code's sign
function.  The stabilizer operators K_i (an X on one vertex times
controlled-Z gates over its neighborhood) are checked exactly on sign
functions; the dense form gives reduced density matrices across the seven
bipartitions and their von Neumann entropies in bits.

Basis index convention: index mu has bit (v-1) carrying the value of
qubit v, matching ``hypercore.basis_string``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hypercore as hc

# cuts listed in fixed report order
ONE_CUTS = ((1,), (2,), (3,), (4,))
TWO_CUTS = ((1, 2), (1, 3), (1, 4))
# vertex pairs (i, j) with i < j, in the row order of the commutation verdicts
PAIRS = tuple(itertools.combinations(hc.VERTICES, 2))


def build_state(h: int) -> np.ndarray:
    """Amplitudes (-1)^g(mu) / 4 of the state named by a code."""
    g = hc.signs_from_hypergraph(h)
    return np.where(g, -0.25, 0.25)


def controlled_z_diagonal(e: int) -> np.ndarray:
    """Diagonal of the multi-controlled-Z over one edge mask, as +-1."""
    hc._check_edge(e)
    mu = np.arange(hc.N_BASIS)
    return np.where((mu & e) == e, -1.0, 1.0)


def stabilizer_defects(codes) -> tuple[np.ndarray, np.ndarray]:
    """Fix and commutation failures of the stabilizers K_i, read off sign words.

    K_i = X_i D_i, where D_i, the controlled-Z product over N(i) with the
    global -1 of a loop on i, has the sign word of code apply_x(h, i) ^ h,
    xor ``hypercore.loop_words`` for the loop.  With g the sign word of |H> and F_i
    the basis flip mu -> mu ^ bit_i (``hypercore.flip_basis``), K_i fixes
    |H> iff D_i ^ g ^ F_i(g) = 0, and K_i, K_j commute iff
    D_j ^ F_j(D_i) = D_i ^ F_i(D_j).  Returns boolean (4, n) fix failures
    and (6, n) commutation failures, rows by vertex and by ``PAIRS``, one
    column per code.
    """
    g = hc.sign_words(codes)
    codes = np.asarray(codes, dtype=np.uint16)
    d = {i: hc.sign_words(hc._x_move(codes, i) ^ codes) ^ hc.loop_words(codes, i)
         for i in hc.VERTICES}
    unfixed = [(d[i] ^ g ^ hc.flip_basis(g, i)) != 0 for i in hc.VERTICES]
    noncommuting = [(d[j] ^ hc.flip_basis(d[i], j) ^ d[i] ^ hc.flip_basis(d[j], i)) != 0
                    for i, j in PAIRS]
    return np.array(unfixed), np.array(noncommuting)


def verify_stabilizers(h: int) -> bool:
    """Check K_i |H> = |H> for all i and that the K_i pairwise commute."""
    unfixed, noncommuting = stabilizer_defects([h])
    return not (unfixed.any() or noncommuting.any())


# ---------------------------------------------------------------------------
# reduced states and entropies


def state_tensor(s) -> np.ndarray:
    """Real amplitudes as T[mu1, mu2, mu3, mu4], one axis per qubit."""
    s = np.asarray(s)
    if np.iscomplexobj(s) or s.shape != (hc.N_BASIS,):
        raise ValueError(f"state must be 16 real amplitudes, got {s.dtype} of shape {s.shape}")
    # C-order reshape puts qubit 4 first; reverse axes so qubit 1 is first
    return s.astype(float).reshape((2,) * hc.N_VERTICES).transpose(3, 2, 1, 0)


def reduced_density(s: np.ndarray, keep) -> np.ndarray:
    """Partial trace of a real state keeping one or two qubits.

    ``keep`` is an iterable of vertex numbers.  Cuts that keep 0, 3 or 4
    qubits are rejected: the complement view (or the purity of the full
    state) already covers them.
    """
    tensor = state_tensor(s)
    kept = hc.edge_vertices(hc.edge_mask(keep))
    if len(kept) not in (1, 2):
        raise ValueError(f"keep must name 1 or 2 qubits, got {kept}")
    axes = [v - 1 for v in kept]
    rest = [ax for ax in range(hc.N_VERTICES) if ax not in axes]
    m = tensor.transpose(axes + rest).reshape(1 << len(kept), -1)
    return m @ m.T


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, with eigenvalues clamped into [0, 1]."""
    if np.iscomplexobj(rho):
        raise ValueError("density matrix must be real")
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=float))
    lam = np.clip(lam, 0.0, 1.0)
    lam = lam[lam > 1e-15]
    # + 0.0 turns the -0.0 of a pure cut into 0.0
    return float(-(lam * np.log2(lam)).sum()) + 0.0


@dataclass(frozen=True)
class EntropyProfile:
    """Entropies of the four 1|3 cuts and the three 2|2 cuts, in bits.

    ``be1`` is ordered (1|234, 2|134, 3|124, 4|123) and ``be2`` is ordered
    (12|34, 13|24, 14|23); comparisons between classes should use the
    multisets, the positional order is only for reproducible reports.
    """

    be1: tuple[float, float, float, float]
    be2: tuple[float, float, float]


def entropy_profile(h: int) -> EntropyProfile:
    """All seven cut entropies of the state named by a code."""
    s = build_state(h)
    be1 = tuple(entropy(reduced_density(s, cut)) for cut in ONE_CUTS)
    be2 = tuple(entropy(reduced_density(s, cut)) for cut in TWO_CUTS)
    return EntropyProfile(be1=be1, be2=be2)

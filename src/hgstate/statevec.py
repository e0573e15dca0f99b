"""Dense four-qubit states, nonlocal stabilizers, and cut entropies.

A code from :mod:`hgstate.hypercore` expands to 16 real amplitudes, all
equal to 1/4 in magnitude, with the sign pattern given by the code's sign
function.  Everything here works on that dense form: the stabilizer
operators K_i (an X on one vertex times controlled-Z gates over its
neighborhood), reduced density matrices across the seven bipartitions, and
their von Neumann entropies in bits.

Basis index convention: index mu has bit (v-1) carrying the value of
qubit v, matching ``hypercore.basis_string``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hypercore as hc

# cuts listed in fixed report order
ONE_CUTS = ((1,), (2,), (3,), (4,))
TWO_CUTS = ((1, 2), (1, 3), (1, 4))
# entrywise tolerance of the dense stabilizer and neighborhood checks
CHECK_TOL = 1e-10


def build_state(h: int) -> np.ndarray:
    """Amplitudes (-1)^g(mu) / 4 of the state named by a code."""
    g = hc.signs_from_hypergraph(h)
    return np.where(g, -0.25, 0.25)


def controlled_z_diagonal(e: int) -> np.ndarray:
    """Diagonal of the multi-controlled-Z over one edge mask, as +-1."""
    hc._check_edge(e)
    mu = np.arange(hc.N_BASIS)
    return np.where((mu & e) == e, -1.0, 1.0)


def _neighborhood_diagonal(h: int, i: int) -> np.ndarray:
    """Diagonal of the controlled-Z product over the neighborhood of i.

    A loop on vertex i contributes the empty controlled-Z, i.e. a global
    factor of -1, which is kept so that the product matches X_i exactly.
    """
    diag = np.full(hc.N_BASIS, -1.0 if hc.has_loop(h, i) else 1.0)
    for e in hc.neighborhood(h, i):
        diag *= controlled_z_diagonal(e)
    return diag


def stabilizer_operator(h: int, i: int) -> np.ndarray:
    """K_i = X_i times the controlled-Z product over the neighborhood of i."""
    k = np.zeros((hc.N_BASIS, hc.N_BASIS))
    mu = np.arange(hc.N_BASIS)
    k[mu ^ (1 << (i - 1)), mu] = _neighborhood_diagonal(h, i)
    return k


def verify_stabilizers(h: int) -> bool:
    """Check K_i |H> = |H> for all i and that the K_i pairwise commute."""
    psi = build_state(h)
    ks = [stabilizer_operator(h, i) for i in hc.VERTICES]
    for k in ks:
        if np.max(np.abs(k @ psi - psi)) >= CHECK_TOL:
            return False
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            if np.max(np.abs(ks[a] @ ks[b] - ks[b] @ ks[a])) >= CHECK_TOL:
                return False
    return True


def neighborhood_equivalence_check(h: int, i: int) -> bool:
    """Check that the controlled-Z product over N(i) maps |H> to X_i |H>.

    The left side includes the global -1 when vertex i carries a loop; with
    that sign both sides agree entrywise, no residual phase freedom.
    """
    psi = build_state(h)
    lhs = _neighborhood_diagonal(h, i) * psi
    mu = np.arange(hc.N_BASIS)
    rhs = psi[mu ^ (1 << (i - 1))]
    return bool(np.max(np.abs(lhs - rhs)) < CHECK_TOL)


# ---------------------------------------------------------------------------
# reduced states and entropies


def reduced_density(s: np.ndarray, keep) -> np.ndarray:
    """Partial trace keeping one or two qubits.

    ``keep`` is an iterable of vertex numbers.  Cuts that keep 0, 3 or 4
    qubits are rejected: the complement view (or the purity of the full
    state) already covers them.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (hc.N_BASIS,):
        raise ValueError(f"state must have 16 amplitudes, got shape {s.shape}")
    kept = hc.edge_vertices(hc.edge_mask(keep))
    if len(kept) not in (1, 2):
        raise ValueError(f"keep must name 1 or 2 qubits, got {kept}")
    # C-order reshape puts qubit 4 on the first axis; move kept axes first
    tensor = s.reshape((2,) * hc.N_VERTICES)
    axes = [hc.N_VERTICES - v for v in kept]
    rest = [ax for ax in range(hc.N_VERTICES) if ax not in axes]
    m = tensor.transpose(axes + rest).reshape(1 << len(kept), -1)
    return m @ m.T


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, with eigenvalues clamped into [0, 1]."""
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=float))
    lam = np.clip(lam, 0.0, 1.0)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


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

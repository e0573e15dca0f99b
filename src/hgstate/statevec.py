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


def stabilizer_defects(codes) -> tuple[np.ndarray, np.ndarray]:
    """Fix and commutation failures of the stabilizers K_i, read off sign words.

    K_i = X_i D_i, where D_i, the controlled-Z product over N(i) with the
    global -1 of a loop on i, has the sign word of code X_i(h) ^ h (by
    ``hypercore.act``), xor ``hypercore.loop_words``.  With g the sign word
    of |H> and F_i the basis flip mu -> mu ^ bit_i (``hypercore.flip_basis``),
    K_i fixes |H> iff D_i ^ g ^ F_i(g) = 0, and K_i, K_j commute iff
    D_j ^ F_j(D_i) = D_i ^ F_i(D_j).  Returns boolean (4, n) fix failures
    and (6, n) commutation failures, rows by vertex and by ``PAIRS``, one
    column per code; a single code, an int, gives 0-d rows, (4,) and (6,).
    """
    g = hc.sign_words(codes)
    codes = np.asarray(codes, dtype=np.uint16)
    d = {i: hc.sign_words(hc.act(codes, x_mask=1 << (i - 1)) ^ codes) ^ hc.loop_words(codes, i)
         for i in hc.VERTICES}
    unfixed, noncommuting = (np.empty((k,) + g.shape, dtype=bool) for k in (4, len(PAIRS)))
    for k, i in enumerate(hc.VERTICES):  # [k, ...] is a view even of a 0-d row
        np.not_equal(d[i] ^ g ^ hc.flip_basis(g, i), 0, out=unfixed[k, ...])
    for k, (i, j) in enumerate(PAIRS):
        np.not_equal(d[j] ^ hc.flip_basis(d[i], j) ^ d[i] ^ hc.flip_basis(d[j], i), 0,
                     out=noncommuting[k, ...])
    return unfixed, noncommuting


def verify_stabilizers(h: int) -> bool:
    """Check K_i |H> = |H> for all i and that the K_i pairwise commute."""
    unfixed, noncommuting = stabilizer_defects(hc.check_code(h))
    return not (unfixed.any() or noncommuting.any())


# ---------------------------------------------------------------------------
# reduced states and entropies


def _amplitudes(s) -> np.ndarray:
    """The 16 real amplitudes of a state as floats; anything else raises."""
    s = np.asarray(s)
    if np.iscomplexobj(s) or s.shape != (hc.N_BASIS,):
        raise ValueError(f"state must be 16 real amplitudes, got {s.dtype} of shape {s.shape}")
    return s.astype(float)


def state_tensor(s) -> np.ndarray:
    """Real amplitudes as T[mu1, mu2, mu3, mu4], one axis per qubit."""
    # C-order reshape puts qubit 4 first; reverse axes so qubit 1 is first
    return _amplitudes(s).reshape((2,) * hc.N_VERTICES).transpose(3, 2, 1, 0)


def _cut_layout(kept: tuple[int, ...]) -> np.ndarray:
    """Basis indices laid out as the matrix of a cut keeping ``kept``: one row
    per value of the kept qubits and one column per value of the rest, the
    lower-numbered qubit of each the more significant."""
    axes = [v - 1 for v in kept]
    rest = [ax for ax in range(hc.N_VERTICES) if ax not in axes]
    index = state_tensor(np.arange(hc.N_BASIS)).astype(int)
    return index.transpose(axes + rest).reshape(1 << len(kept), -1)


# the matrix layout of every cut that keeps one or two qubits, keyed by its
# sorted vertices, and the stacked layouts of the report's cuts
_CUT_LAYOUTS = {kept: _cut_layout(kept)
                for k in (1, 2) for kept in itertools.combinations(hc.VERTICES, k)}
_ONE_CUT_LAYOUT, _TWO_CUT_LAYOUT = (np.array([_CUT_LAYOUTS[cut] for cut in cuts])
                                    for cuts in (ONE_CUTS, TWO_CUTS))


def _densities(m: np.ndarray) -> np.ndarray:
    """m m^T for a cut matrix m, or for each of a stack of them."""
    return m @ m.swapaxes(-1, -2)


def reduced_density(s: np.ndarray, keep) -> np.ndarray:
    """Partial trace of a real state keeping one or two qubits.

    ``keep`` is an iterable of vertex numbers.  Cuts that keep 0, 3 or 4
    qubits are rejected: the complement view (or the purity of the full
    state) already covers them.
    """
    s = _amplitudes(s)
    kept = hc.edge_vertices(hc.edge_mask(keep))
    if len(kept) not in (1, 2):
        raise ValueError(f"keep must name 1 or 2 qubits, got {kept}")
    return _densities(s[_CUT_LAYOUTS[kept]])


def _entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a real density matrix, or of each of
    a stack of them, with eigenvalues clamped into [0, 1].

    Eigenvalues of at most 1e-15 add an exact zero (their log is taken at
    1), so each sum runs over the others in order, as if they were dropped.
    """
    lam = np.minimum(np.maximum(np.linalg.eigvalsh(rho), 0.0), 1.0)
    terms = lam * np.log2(np.where(lam > 1e-15, lam, 1.0))
    # 0.0 - sum, not -sum, gives a pure cut 0.0 rather than -0.0
    return 0.0 - terms.sum(axis=-1)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, with eigenvalues clamped into [0, 1]."""
    if np.iscomplexobj(rho):
        raise ValueError("density matrix must be real")
    return float(_entropies(np.asarray(rho, dtype=float)))


@dataclass(frozen=True, slots=True)
class EntropyProfile:
    """Entropies of the four 1|3 cuts and the three 2|2 cuts, in bits.

    ``be1`` is ordered (1|234, 2|134, 3|124, 4|123) and ``be2`` is ordered
    (12|34, 13|24, 14|23); comparisons between classes should use the
    multisets, the positional order is only for reproducible reports.
    """

    be1: tuple[float, float, float, float]
    be2: tuple[float, float, float]


def entropy_profile(h: int) -> EntropyProfile:
    """All seven cut entropies of the state named by a code.

    The four 1|3 cuts and the three 2|2 cuts each stack the matrices that
    :func:`reduced_density` builds, and each stack takes the formula of
    :func:`entropy` in one call, so every value has the bits of its cut alone.
    """
    s = build_state(h)
    be1, be2 = (_entropies(_densities(s[layout])).tolist()
                for layout in (_ONE_CUT_LAYOUT, _TWO_CUT_LAYOUT))
    return EntropyProfile(be1=tuple(be1), be2=tuple(be2))

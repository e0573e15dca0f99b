"""Geometric entanglement through alternating closest-product iteration.

The geometric measure of a pure state is E_g = -log2 |<Phi|psi>|^2
maximized over product states Phi = phi_1 x phi_2 x phi_3 x phi_4.  The
maximizer is found by alternating sweeps: holding three single-qubit
states fixed, the optimal fourth is the conjugated, normalized
environment (the contraction of the state against the other three), and
cycling through the qubits makes the overlap non-decreasing.
``RESTARTS`` random restarts guard against local maxima; their merge is
deterministic for a fixed seed.  All restarts advance together: a sweep
views the real state as a 4x4 matrix T[ab, cd] and shares two partial
contractions between the qubits, one against qubits 3 and 4 (for the
updates of qubits 1 and 2) and one against the updated qubits 1 and 2
(for qubits 3 and 4).  A sweep sets each qubit to its conjugated
environment unnormalized and rescales all four once, at its end: the
environments are multilinear, so a scale factor on one qubit leaves the
directions of the later ones, and with them the iterates, unchanged.  A
zero environment, which keeps its qubit, needs an overlap of exactly 0,
so one test per sweep finds the restarts that must be swept qubit by
qubit instead.

Alternating sweeps converge linearly only at nondegenerate maxima, and
crawl near degenerate maxima and saddles.  After ``EXTRAPOLATE_AFTER``
iterations each further one is a SQUAREM step (Varadhan and Roland,
Scand. J. Statist. 35, 335 (2008)) built from sweeps alone.
The one solve entry point is :func:`solve_code`, set only through a
:class:`SolvePolicy`; E_g of a code is ``solve_code(h, policy).eg``.

The module also carries the closed-form overlap values known for many
classes, the one-parameter fixed-point iteration for the symmetric
three-qubit witness, and the analysis of a converged witness: which
qubits share a state, and whether a real product state attains its
overlap, decided over the two angles that fix real qubits 1 and 2.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import hypercore as hc
from . import statevec as sv

# random restarts per solve
RESTARTS = 64
DEFAULT_MAX_ITER = 5000

# a restart is done when one iteration raises its overlap by less than this
TOL = 1e-12
# overlaps this close to the best are treated as hitting the best
HIT_WINDOW = 1e-9
# an environment of at most this norm is zero: its qubit is kept
_ZERO_NORM = 1e-300
# single-qubit states this close in fidelity count as the same state
MERGE_TOL = 1e-6
# iterations after which each further iteration is one extrapolation step
EXTRAPOLATE_AFTER = 100
# a class is "C" when its best real overlap is proved this far below its overlap
REAL_GAP = 1e-6
# the reality search's start grid points per angle, zoom levels and evaluation cap
START_GRID = 16
ZOOM_LEVELS = 10
MAX_EVALUATIONS = 1 << 16

class IterationDiverged(RuntimeError):
    """The one-parameter iteration ran into its pole; restart upstream."""


class RealityUndecided(RuntimeError):
    """The reality search neither found a real witness nor proved there is none."""


@dataclass(frozen=True)
class SolvePolicy:
    """Knobs of the randomized closest-product solve."""

    max_iter: int = DEFAULT_MAX_ITER
    seed: int = 0

    def __post_init__(self):
        # operator.index rejects floats such as 2.5 but passes numpy integers
        for name in ("max_iter", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ProductState:
    """Four unit-norm single-qubit amplitude pairs (x_i, y_i)."""

    qubits: np.ndarray  # complex, shape (4, 2)

    def __post_init__(self):
        q = np.asarray(self.qubits, dtype=complex)
        if q.shape != (hc.N_VERTICES, 2):
            raise ValueError(f"product state needs shape (4, 2), got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("single-qubit amplitudes must be finite")
        norms = np.linalg.norm(q, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("single-qubit states must be unit norm")
        object.__setattr__(self, "qubits", q)


@dataclass(frozen=True)
class GeSolution:
    """Outcome of one randomized closest-product solve.

    ``candidates`` holds the witnesses of every restart whose overlap came
    within 1e-9 of the best (restart order preserved); ``tensor`` is the
    solved state reshaped to one axis per qubit, kept so the witness can be
    re-analyzed without the original state.  ``sweeps`` counts the
    iterations run, each one alternating sweep (after ``EXTRAPOLATE_AFTER``
    of them, one SQUAREM step of three sweeps), and ``stop`` names why they
    ended: "tol" when at one iteration every restart improved its overlap
    by less than ``TOL``, "max_iter" when the cap was hit first.
    """

    overlap: float
    eg: float
    witness: ProductState
    restarts_hit: int
    converged: bool
    sweeps: int
    stop: str
    candidates: np.ndarray = field(repr=False)  # complex, shape (k, 4, 2)
    tensor: np.ndarray = field(repr=False)      # real, shape (2, 2, 2, 2)
    monotone_slack: float = 0.0


@dataclass(frozen=True)
class DegeneracyPattern:
    """Grouping of a witness's single-qubit states, plus its reality flag.

    ``label`` is one of "4", "1,3", "2,2", "1,2,1", "1,1,1,1" (sizes of the
    groups of coinciding states).  ``reality`` is "R" or "C" (see
    :func:`degeneracy_pattern`).  ``census`` lists (label, count) over all
    best-overlap candidates, coarsest first, for reporting competing
    groupings.  ``evaluations`` counts the reality search's evaluations; it
    stays out of every report.
    """

    label: str
    reality: str
    census: tuple[tuple[str, int], ...] = ()
    evaluations: int = 0


def _random_product_batch(rng, restarts: int) -> np.ndarray:
    phi = rng.normal(size=(restarts, hc.N_VERTICES, 2)) + 1j * rng.normal(
        size=(restarts, hc.N_VERTICES, 2)
    )
    return phi / np.linalg.norm(phi, axis=2, keepdims=True)


def _pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Two-qubit product amplitudes p[r, a] q[r, b], flattened to shape (R, 4)."""
    return (p[:, :, None] * q[:, None, :]).reshape(len(p), 4)


def _sweep(tensor: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One full alternating sweep over the four qubits, in place.

    Each qubit in turn is set to its conjugated environment, left
    unnormalized, and all four are rescaled to unit norm once, at the end.
    The environments are multilinear, so a qubit off by a positive factor
    scales the environments of the later qubits without turning them: the
    rescaled qubits are the iterates of the normalize-every-qubit order, up
    to rounding.  With n_k the norm of qubit k as it was used, the overlap
    after the sweep is |env_4| / (n_1 n_2 n_3) = n_4 / (n_1 n_2 n_3).

    The sweep shares two partial contractions of T viewed as a 4x4 matrix
    T[ab, cd].  Tcd[r, a, b] = sum_cd T[abcd] phi3[r, c] phi4[r, d] gives the
    environments of qubits 1 and 2 (Tcd.phi2, then phi1.Tcd with the new
    phi1); Tab[r, c, d] = sum_ab phi1[r, a] phi2[r, b] T[abcd], built from the
    new pair, gives those of qubits 3 and 4 (Tab.phi4, then phi3.Tab): two
    (R, 4) @ (4, 4) products and four batched 2x2 products per sweep.  The
    kernel is dtype-generic; numpy upcasts a real ``tensor`` to match a
    complex ``phi``.

    A restart whose environment is zero (norm at most ``_ZERO_NORM``) keeps
    that qubit.  Left unnormalized, the zero would pass on to every later
    qubit, so such restarts are swept again qubit by qubit.  Finding them
    takes one reduction per sweep: for a state of norm at most 1 no n_k
    exceeds the norm of its normalized-order environment, and a zero
    environment needs an overlap of exactly 0 at that moment (|env_k| >=
    |<Phi|psi>|, and no update within a sweep lowers the overlap), which
    random starts never meet.

    Returns the overlaps |f| after the sweep, one per restart.
    """
    t = tensor.reshape(4, 4)
    new = np.empty_like(phi)
    p1, p2, p3, p4 = phi.transpose(1, 0, 2)
    q1, q2, q3, q4 = new.transpose(1, 0, 2)
    tcd = (_pair(p3, p4) @ t.T).reshape(-1, 2, 2)
    np.conjugate((tcd @ p2[:, :, None])[:, :, 0], out=q1)
    np.conjugate((q1[:, None, :] @ tcd)[:, 0], out=q2)
    tab = (_pair(q1, q2) @ t).reshape(-1, 2, 2)
    np.conjugate((tab @ p4[:, :, None])[:, :, 0], out=q3)
    np.conjugate((q3[:, None, :] @ tab)[:, 0], out=q4)
    parts = new.view(new.real.dtype)  # real and imaginary parts side by side
    norms = np.sqrt(np.einsum("rki,rki->rk", parts, parts))
    if norms.min() > _ZERO_NORM:
        np.divide(new, norms[:, :, None], out=phi)
        return norms[:, 3] / (norms[:, 0] * norms[:, 1] * norms[:, 2])
    live = (norms > _ZERO_NORM).all(axis=1)
    n = norms[live]
    phi[live] = new[live] / n[:, :, None]
    overlap = np.empty(len(phi))
    overlap[live] = n[:, 3] / (n[:, 0] * n[:, 1] * n[:, 2])
    # the environment of qubit k is the overlap with qubit k set to |0> and to |1>
    stuck = phi[~live]
    for k in range(hc.N_VERTICES):
        basis = np.repeat(stuck[:, None], 2, axis=1)
        basis[:, :, k] = np.eye(2)
        env = _contract(tensor, basis.reshape(-1, hc.N_VERTICES, 2)).reshape(-1, 2)
        norm = np.linalg.norm(env, axis=1)
        moves = norm > _ZERO_NORM
        stuck[moves, k] = env[moves].conj() / norm[moves, None]
    phi[~live], overlap[~live] = stuck, norm
    return overlap


def _contract(tensor: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Overlap <Phi|psi> for a batch of product states."""
    tab = _pair(phi[:, 0], phi[:, 1]) @ tensor.reshape(4, 4)
    return (tab * _pair(phi[:, 2], phi[:, 3])).sum(axis=1)


def _extrapolate(tensor: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One SQUAREM step of the sweep map for every restart, in place.

    A sweep leaves the overlap real and positive, so a maximum is a fixed
    point of the sweep in amplitude space and iterates can be differenced.
    Two sweeps take x0 = phi to x1 and x2; with r = x1 - x0,
    v = x2 - 2 x1 + x0 and alpha = min(-|r| / |v|, -1) over all 8
    amplitudes (-1 when v = 0, giving back x2), y = x0 - 2 alpha r +
    alpha^2 v is normalized per qubit and swept once.  A restart keeps x2
    unless that sweep reaches at least its overlap from a y with no qubit
    of norm at most ``_ZERO_NORM``.  Returns the overlaps of the kept points.
    """
    x0 = phi.copy()
    _sweep(tensor, phi)
    x1 = phi.copy()
    overlap = _sweep(tensor, phi)
    r = x1 - x0
    v = (phi - x1) - r
    r_norm, v_norm = (np.linalg.norm(d, axis=(1, 2)) for d in (r, v))
    ratio = np.divide(r_norm, v_norm, out=np.zeros_like(r_norm), where=v_norm > 0.0)
    alpha = np.minimum(-ratio, -1.0)[:, None, None]
    y = x0 - 2.0 * alpha * r + alpha * alpha * v
    norms = np.linalg.norm(y, axis=2, keepdims=True)
    live = norms > _ZERO_NORM
    np.divide(y, norms, out=y, where=live)
    new = _sweep(tensor, y)
    take = live.all(axis=(1, 2)) & (new >= overlap)
    phi[take] = y[take]
    return np.where(take, new, overlap)


def _ascend(tensor: np.ndarray, phi: np.ndarray, max_iter: int):
    """Raise the overlap of every restart in ``phi``, in place.

    Each iteration is one sweep, or one :func:`_extrapolate` step of three
    sweeps once ``EXTRAPOLATE_AFTER`` iterations have passed.  A restart is
    done when its overlap rose by less than ``TOL`` over the iteration (a
    stationarity test adds nothing: from a point of gradient norm g a sweep
    gains about g^2 / 2|f|); the loop ends when every restart is done at
    the same iteration (never at the first), with stop "tol", or after
    ``max_iter`` iterations, with stop "max_iter".  One gain array per iteration serves
    both tests: the slack is -min(gain) and the stop is max(gain) < TOL.
    The tensor is cast to the dtype of ``phi`` once, not in every product.
    Returns (iterations, stop, monotone slack, overlaps), the slack being
    the largest drop of any restart's overlap and the overlaps those of the
    last iteration.
    """
    tensor = tensor.astype(phi.dtype, copy=False)
    overlap = np.zeros(len(phi))
    slack = 0.0
    for sweeps in range(1, max_iter + 1):
        step = _extrapolate if sweeps > EXTRAPOLATE_AFTER else _sweep
        new = step(tensor, phi)
        gain = new - overlap
        overlap = new
        if sweeps > 1:
            slack = max(slack, -float(gain.min()))
            if gain.max() < TOL:
                return sweeps, "tol", slack, overlap
    return max_iter, "max_iter", slack, overlap


def solve_code(h: int, policy: SolvePolicy | None = None) -> GeSolution:
    """Best product-state overlap of the state named by a code, with restarts.

    All restarts run in one batched iteration (see :func:`_ascend`): plain
    alternating sweeps, and SQUAREM steps of three sweeps each after the
    first ``EXTRAPOLATE_AFTER``.  The solve stops with ``stop == "tol"`` at
    the first iteration in which every restart improved its overlap by less
    than ``TOL``, and with ``stop == "max_iter"`` after ``max_iter``
    iterations, SQUAREM steps counted as one each (the solution is then
    flagged unconverged rather than raising).  ``sweeps`` is the number of
    iterations.  The restart stream is seeded from the policy seed and the
    code, and the reported witness is the lowest-indexed restart achieving
    the best overlap, so per-class results do not depend on evaluation order.
    """
    policy = policy or SolvePolicy()
    tensor = sv.state_tensor(sv.build_state(h))
    rng = np.random.default_rng([policy.seed, h])
    phi = _random_product_batch(rng, RESTARTS)
    sweeps, stop, slack, _ = _ascend(tensor, phi, policy.max_iter)
    overlap = np.abs(_contract(tensor, phi))
    best = int(np.argmax(overlap))
    # Rounding can push the overlap of a unit product pair a hair above 1;
    # clamp so product states report E_g = 0 rather than -1e-16.
    best_overlap = min(float(overlap[best]), 1.0)
    hit = overlap >= best_overlap - HIT_WINDOW
    return GeSolution(
        overlap=best_overlap,
        eg=-2.0 * math.log2(best_overlap) + 0.0,
        witness=ProductState(phi[best]),
        restarts_hit=int(hit.sum()),
        converged=stop == "tol",
        sweeps=sweeps,
        stop=stop,
        candidates=phi[hit].copy(),
        tensor=tensor,
        monotone_slack=slack,
    )


# ---------------------------------------------------------------------------
# witness analysis


# the six qubit pairs; bit b of a coincidence mask stands for pair _PAIRS[b]
_PAIRS = tuple(itertools.combinations(range(hc.N_VERTICES), 2))
_PAIR_I, _PAIR_J = np.array(_PAIRS).T
_PAIR_BITS = 1 << np.arange(len(_PAIRS))


def _merge(mask: int) -> tuple[int, ...]:
    """Group sizes (descending) when the pairs set in ``mask`` coincide; a
    coinciding pair merges its two whole groups, so chains of states join."""
    label = list(range(hc.N_VERTICES))
    for bit, (i, j) in enumerate(_PAIRS):
        if mask >> bit & 1:
            old, new = max(label[i], label[j]), min(label[i], label[j])
            label = [new if lab == old else lab for lab in label]
    return tuple(sorted(Counter(label).values(), reverse=True))


# group sizes for every one of the 2^6 coincidence masks
_PARTITIONS = tuple(_merge(mask) for mask in range(1 << len(_PAIRS)))

_PARTITION_LABELS = {
    (4,): "4",
    (3, 1): "1,3",
    (2, 2): "2,2",
    (2, 1, 1): "1,2,1",
    (1, 1, 1, 1): "1,1,1,1",
}


def _partition_sizes(phi: np.ndarray) -> list[tuple[int, ...]]:
    """Group sizes of coinciding single-qubit states, one tuple per witness
    of the stack phi[k, qubit]: two states coincide when their fidelity
    |<phi_i|phi_j>| exceeds 1 - MERGE_TOL."""
    fidelity = np.abs((phi[:, _PAIR_I].conj() * phi[:, _PAIR_J]).sum(axis=2))
    masks = (fidelity > 1.0 - MERGE_TOL) @ _PAIR_BITS
    return [_PARTITIONS[m] for m in masks]


# the start grid's box centres over [0, pi]^2, then the offsets of a 9x9 zoom
# grid and of a box's four children, in units of the new spacing
_START = (np.indices((START_GRID, START_GRID)).reshape(2, -1).T + 0.5) * (math.pi / START_GRID)
_ZOOM = np.indices((9, 9)).reshape(2, -1).T - 4.0
_CHILDREN = 2.0 * np.indices((2, 2)).reshape(2, -1).T - 1.0


def _top_singular(tensor: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """sigma_max of M = sum_ab a_a b_b T[a, b, :, :], with a and b the real
    qubits (cos t, sin t) of each angle pair angles[..., :]; the closed form
    sigma^2 = (|M|^2 + sqrt(|M|^4 - 4 det^2)) / 2, without its cancellation."""
    q = np.stack((np.cos(angles), np.sin(angles)), axis=-1).reshape(-1, 2, 2)
    m00, m01, m10, m11 = tensor.reshape(4, 4).T @ _pair(q[:, 0], q[:, 1]).T
    sigma = np.hypot(m00 + m11, m01 - m10) + np.hypot(m00 - m11, m01 + m10)
    return 0.5 * sigma.reshape(angles.shape[:-1])


def _best_real_overlap(tensor: np.ndarray, overlap: float):
    """(best real product overlap found, its witness, a proved upper bound
    on all of them, evaluations).

    With real qubits 1 and 2 fixed by angles t1, t2, the best real qubits 3
    and 4 are the top singular vectors of M (:func:`_top_singular`), so the
    real maximum is that of sigma_max(M) over [0, pi]^2.  Each derivative
    of it is an overlap with a unit product state, so a box of half-width w
    and centre value v holds nothing above v + 2 |T| w.  The best two of a
    START_GRID^2 grid of boxes seed up to ZOOM_LEVELS 9x9 grids, each a
    quarter the spacing of the last, until the best value is HIT_WINDOW
    from ``overlap``.  Short of overlap - REAL_GAP, branch-and-bound then
    quarters every box whose bound reaches it, until none does or the next
    level would pass MAX_EVALUATIONS; the bound is the final boxes' largest.
    """
    hit, ceiling = overlap - HIT_WINDOW, overlap - REAL_GAP
    slope = 2.0 * float(np.linalg.norm(tensor))
    best, at, evaluations = -math.inf, None, 0

    def evaluate(angles):
        nonlocal best, at, evaluations
        values = _top_singular(tensor, angles)
        evaluations += values.size
        i = int(values.argmax())
        if values.flat[i] > best:
            best, at = float(values.flat[i]), angles.reshape(-1, 2)[i]
        return values

    boxes, half = _START, math.pi / (2 * START_GRID)
    values = evaluate(boxes)
    seeds, spacing = boxes[np.argsort(-values, kind="stable")[:2]], 2.0 * half
    for _ in range(ZOOM_LEVELS):
        if best >= hit:
            break
        spacing /= 4.0
        grids = seeds[:, None] + spacing * _ZOOM
        seeds = grids[[0, 1], evaluate(grids).argmax(axis=1)]
    retired = -math.inf
    while best < ceiling:
        live = values + slope * half >= ceiling
        retired = max(retired, np.max(values[~live], initial=-math.inf) + slope * half)
        boxes, values = boxes[live], values[live]
        if not len(boxes) or evaluations + 4 * len(boxes) > MAX_EVALUATIONS:
            break
        half /= 2.0
        boxes = (boxes[:, None] + half * _CHILDREN).reshape(-1, 2)
        values = evaluate(boxes)
    bound = float(max(retired, np.max(values, initial=-math.inf) + slope * half))
    a, b = np.stack((np.cos(at), np.sin(at)), axis=-1)
    u, _, vt = np.linalg.svd((np.outer(a, b).reshape(4) @ tensor.reshape(4, 4)).reshape(2, 2))
    return best, ProductState(np.array((a, b, u[:, 0], vt[0]))), bound, evaluations


def degeneracy_pattern(sol: GeSolution) -> DegeneracyPattern:
    """Grouping and reality of the closest product state.

    The label follows the declared tie-break: among all restarts within
    1e-9 of the best overlap, the coarsest grouping (fewest distinct
    single-qubit states) wins, earlier restarts breaking ties.  Reality is
    "R" when the real witness of :func:`_best_real_overlap` comes within
    ``HIT_WINDOW`` of the best overlap, "C" when its proved bound stays
    ``REAL_GAP`` below it; anything else raises :class:`RealityUndecided`.
    """
    partitions = _partition_sizes(sol.candidates)
    counts = Counter(partitions)
    coarsest = min(partitions, key=len)
    census = tuple(
        (_PARTITION_LABELS[p], n)
        for p, n in sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    )
    best, _, bound, evaluations = _best_real_overlap(sol.tensor, sol.overlap)
    real = best >= sol.overlap - HIT_WINDOW
    if not real and bound >= sol.overlap - REAL_GAP:
        raise RealityUndecided(f"best real overlap {best:.12f} and bound {bound:.12f} decide "
                               f"nothing against {sol.overlap:.12f} in {evaluations} evaluations")
    return DegeneracyPattern(
        label=_PARTITION_LABELS[coarsest], reality="R" if real else "C",
        census=census, evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# symmetric one-parameter iteration and closed forms


def symmetric_z_iteration(z0: complex) -> complex:
    """Iterate z -> (1 + 2z - z^2) / (1 + z)^2 from z0 until steps settle.

    Stops once consecutive iterates differ by less than 1e-12 (or after
    10**4 steps).  A pole sits at z = -1 and the pair {-1, infinity} is
    an attracting 2-cycle for nearby starts, so iterates approaching -1
    raise :class:`IterationDiverged`; the caller restarts from a new z0.
    """
    z = complex(z0)
    if z == -1:
        raise ValueError("z0 = -1 is the pole of the iteration")
    for _ in range(10**4):
        if abs(z + 1.0) < 1e-8:
            raise IterationDiverged(f"iterate reached the pole region near z=-1 (z={z})")
        nxt = (1.0 + 2.0 * z - z * z) / ((1.0 + z) * (1.0 + z))
        if abs(nxt - z) < 1e-12:
            return nxt
        z = nxt
    return z


def symmetric_cubic_residual(z: complex) -> complex:
    """Residual of the fixed-point cubic z^3 + 3z^2 - z - 1 = 0."""
    return z * z * z + 3.0 * z * z - z - 1.0


def symmetric_z_closed_form() -> float:
    """The unique attracting root of the cubic, in closed form."""
    tau = math.atan(math.sqrt(37.0 / 27.0)) / 3.0
    return -1.0 - (4.0 * math.sqrt(3.0) / 3.0) * math.cos(tau + 2.0 * math.pi / 3.0)


def triangle_eg_closed_form() -> float:
    """E_g of the three-qubit triangle state, from the closed-form z.

    The symmetric witness is (x, y) with y/x = z; its overlap with the
    triangle state is ((x+y)^3 - 2 y^3) / sqrt(8).
    """
    z = symmetric_z_closed_form()
    x = 1.0 / math.sqrt(1.0 + z * z)
    y = z * x
    f = ((x + y) ** 3 - 2.0 * y**3) / math.sqrt(8.0)
    return -2.0 * math.log2(abs(f))


def closed_form_values() -> dict[int, float]:
    """Exact E_g values by class number, for every class with a printed
    closed form; class 12 carries the triangle value."""
    log2 = math.log2
    sqrt = math.sqrt
    return {
        5: 3.0 + 2.0 * log2(3.0 / 5.0),
        11: 5.0 - log2(9.0 + 3.0 * sqrt(3.0)),
        12: triangle_eg_closed_form(),
        14: 1.0,
        15: 3.0 + 2.0 * log2(3.0 / 5.0),
        16: 4.0 - 2.0 * log2(1.0 + sqrt(5.0)),
        17: 2.5 - log2(1.0 + sqrt(2.0)),
        18: 1.0,
        19: 3.0 - log2(3.0),
        20: 4.0 - 2.0 * log2(1.0 + sqrt(2.0)),
        21: 4.0 - 2.0 * log2(1.0 + sqrt(2.0)),
        22: 1.0,
        23: 3.0 - log2(5.0),
        25: 3.0 - log2(3.0),
        26: 6.0 - 2.0 * log2(3.0 + sqrt(5.0)),
        28: 4.0 - 2.0 * log2(3.0),
    }

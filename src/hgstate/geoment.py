"""Geometric entanglement through alternating closest-product iteration.

The geometric measure of a pure state is E_g = -log2 |<Phi|psi>|^2
maximized over product states Phi = phi_1 x phi_2 x phi_3 x phi_4.  The
maximizer is found by alternating sweeps: holding three single-qubit
states fixed, the optimal fourth is the conjugated, normalized
environment (the contraction of the state against the other three), and
cycling through the qubits makes the overlap non-decreasing.
``RESTARTS`` random restarts guard against local maxima; their merge is
deterministic for a fixed seed.  All restarts of up to ``BATCH`` codes
advance together, each code leaving the batch when its own restarts stop.
A sweep views each real state as a 4x4 matrix T[ab, cd] and shares two partial
contractions between the qubits, one against qubits 3 and 4 (for the
updates of qubits 1 and 2) and one against the updated qubits 1 and 2
(for qubits 3 and 4).  A sweep sets each qubit to its conjugated
environment unnormalized and rescales all four once, at its end: the
environments are multilinear, so a scale factor on one qubit leaves the
directions of the later ones, and with them the iterates, unchanged.  The
kernel handles one case, a real tensor with restarts of positive overlap:
a zero environment needs an overlap of exactly 0, which no random start
meets, so a norm of at most ``_ZERO_NORM`` at a rescale raises
:class:`FloatingPointError` instead of being handled.

The kernel (:func:`_sweep`, :func:`_contract`, :func:`_extrapolate`,
:func:`_ascend`) is restart-major: the restarts of one code are
phi[qubit, amplitude, r], of shape (4, 2, R), and a batch of n codes
stacks them to (n, 4, 2, R), so every step is one ufunc call over
contiguous rows of R values, not inner loops of two or four values with
one tiny matrix product per restart.  The two products with T per sweep
are (4, 4) @ (4, R) matmuls on the float view of the complex pair
products, so the real tensor is never cast to complex, and the four 2x2
contractions are two-term elementwise products.  Every step writes with
``out=`` into the buffers and views of one work area per batch
(:class:`_Work`), which :func:`_ascend` builds once and again only when a
code leaves the batch.  Only :func:`solve_codes` meets the layout: it
transposes its seeded starts in once and its witnesses and candidates out
once, so every :class:`GeSolution` holds (4, 2) and (k, 4, 2) arrays.

Alternating sweeps converge linearly only at nondegenerate maxima, and
crawl near degenerate maxima and saddles, so every iteration is one
SQUAREM step (Varadhan and Roland, Scand. J. Statist. 35, 335 (2008))
built from three sweeps alone.
The solve entry point is :func:`solve_codes`, set only through a
:class:`SolvePolicy`; E_g of a code is ``solve_code(h, policy).eg``, its
one-code case.

The module also carries the closed-form overlap values known for many
classes, the one-parameter fixed-point iteration for the symmetric
three-qubit witness, and the analysis of a converged witness: which
qubits share a state, and whether a real product state attains its
overlap.  The real witness comes from the same solve: beside its
``RESTARTS`` random starts, each code's row carries ``RIDERS`` real
starts, its best-scoring products of |0>, |1>, |+> and |->, ranked in
exact integers (the real, product-state part of the stabilizer fidelity
of Bravyi et al., Quantum 3, 181 (2019)).  A real tensor keeps them real,
so the best of them is the real witness.  Only the codes they leave short
of the overlap need a proof that no real product state does better; it
runs over the two angles that fix real qubits 1 and 2
(:func:`_best_real_overlap`), on a stack of codes, with every code keeping
the bits of its proof alone.  :func:`degeneracy_patterns` decides a whole
classification with one such proof and hands out its patterns lazily;
:func:`degeneracy_pattern` takes one solution.
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

# random restarts per solve, and real stabilizer-product starts that ride with them
RESTARTS = 64
RIDERS = 4
DEFAULT_MAX_ITER = 5000

# a restart is done when one iteration raises its overlap by less than this
TOL = 1e-12
# overlaps this close to the best are treated as hitting the best
HIT_WINDOW = 1e-9
# a qubit of at most this norm at a rescale is zero: the solve raises
_ZERO_NORM = 1e-300
# single-qubit states this close in fidelity count as the same state
MERGE_TOL = 1e-6
# a class is "C" when its best real overlap is proved this far below its overlap
REAL_GAP = 1e-6
# the reality proof's start grid points per angle and evaluation cap
START_GRID = 16
MAX_EVALUATIONS = 1 << 16

class IterationDiverged(RuntimeError):
    """The one-parameter iteration ran into its pole; restart upstream."""


class RealityUndecided(RuntimeError):
    """The reality search neither found a real witness nor proved there is none."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ProductState:
    """Four unit-norm single-qubit amplitude pairs (x_i, y_i)."""

    qubits: np.ndarray  # complex, shape (4, 2)

    def __post_init__(self):
        q = np.asarray(self.qubits, dtype=complex)
        if q.shape != (hc.N_VERTICES, 2):
            raise ValueError(f"product state needs shape (4, 2), got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("single-qubit amplitudes must be finite")
        if abs(np.linalg.norm(q, axis=1) - 1.0).max() > 1e-12:
            raise ValueError("single-qubit states must be unit norm")
        object.__setattr__(self, "qubits", q)


@dataclass(frozen=True, slots=True)
class GeSolution:
    """Outcome of one randomized closest-product solve.

    ``candidates`` holds the witnesses of every restart whose overlap came
    within 1e-9 of the best (restart order preserved); ``tensor`` is the
    solved state reshaped to one axis per qubit, kept so the witness can be
    re-analyzed without the original state.  ``iterations`` counts the
    iterations run, each one SQUAREM step of three sweeps, and ``stop``
    names why they ended: "tol" when at one iteration every restart
    improved its overlap by less than ``TOL``, "max_iter" when the cap was
    hit first.  ``overlap``, ``witness``, ``restarts_hit`` and
    ``candidates`` read the ``RESTARTS`` random restarts alone;
    ``real_overlap`` and ``real_witness`` are the best of the ``RIDERS``
    real starts, which the solve keeps real.
    """

    overlap: float
    eg: float
    witness: ProductState
    restarts_hit: int
    converged: bool
    iterations: int
    stop: str
    real_overlap: float
    real_witness: ProductState
    candidates: np.ndarray = field(repr=False)  # complex, shape (k, 4, 2)
    tensor: np.ndarray = field(repr=False)      # real, shape (2, 2, 2, 2)
    monotone_slack: float = 0.0


@dataclass(frozen=True, slots=True)
class DegeneracyPattern:
    """Grouping of a witness's single-qubit states, plus its reality flag.

    ``label`` is one of "4", "1,3", "2,2", "1,2,1", "1,1,1,1" (sizes of the
    groups of coinciding states).  ``reality`` is "R" or "C" (see
    :func:`degeneracy_patterns`).  ``census`` lists (label, count) over all
    best-overlap candidates, coarsest first, for reporting competing
    groupings.  ``evaluations`` counts the evaluations of the proof that
    no real product state reaches the overlap, 0 when the solve's real
    riders reach it and no proof runs; it stays out of every report.
    """

    label: str
    reality: str
    census: tuple[tuple[str, int], ...] = ()
    evaluations: int = 0


def _random_product_batch(rng, restarts: int) -> np.ndarray:
    # the real parts are drawn first, then the imaginary ones
    parts = rng.normal(size=(2, restarts, hc.N_VERTICES, 2))
    phi = parts[0] + 1j * parts[1]
    return phi / np.linalg.norm(phi, axis=2, keepdims=True)


# |0>, |1>, |+> and |-> unnormalized, their integer pair products (16, 4),
# first qubit major, the factors of each of the 256 products of four of
# them, 2^(4 - k) for each, k its number of |+-> factors, and the four
# states normalized
_STABILIZER_QUBITS = np.array([[1, 0], [0, 1], [1, 1], [1, -1]])
_STABILIZER_PAIRS = np.array([np.kron(a, b) for a in _STABILIZER_QUBITS for b in _STABILIZER_QUBITS])
_FACTORS = np.indices((4,) * hc.N_VERTICES).reshape(hc.N_VERTICES, -1).T  # (256, 4)
_STABILIZER_WEIGHTS = 16 >> (_FACTORS >= 2).sum(axis=1)
_STABILIZER_UNITS = _STABILIZER_QUBITS / np.linalg.norm(_STABILIZER_QUBITS, axis=1, keepdims=True)


def _stabilizer_scores(signs: np.ndarray) -> np.ndarray:
    """256 |<Phi|psi>|^2 of every product Phi of |0>, |1>, |+> and |->, as
    exact integers, for a stack of n tensors signs = 4 psi of +-1 entries,
    shaped (n, 256) with product index 64 q1 + 16 q2 + 4 q3 + q4.

    The contraction I of 4 psi with the unnormalized factors is an integer,
    and |<Phi|psi>| = |I| 2^(-k/2) / 4 with k the number of |+-> factors,
    so the score is I^2 2^(4 - k).
    """
    i = _STABILIZER_PAIRS @ signs.reshape(-1, 4, 4) @ _STABILIZER_PAIRS.T
    return (i * i).reshape(len(signs), -1) * _STABILIZER_WEIGHTS


def _riders(signs: np.ndarray) -> np.ndarray:
    """The ``RIDERS`` best-scoring real stabilizer products of each tensor of
    a stack of +-1 tensors, as unit qubits (n, RIDERS, 4, 2): highest score
    first, ties by product index.  Every code has at least 81 products of
    positive score, so every rider starts at a positive overlap, as the
    kernel needs."""
    top = np.argsort(-_stabilizer_scores(signs), axis=1, kind="stable")[:, :RIDERS]
    return _STABILIZER_UNITS[_FACTORS[top]]


def _pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Two-qubit product amplitudes p[..., a, r] q[..., b, r], flattened to shape (..., 4, R)."""
    return (p[..., :, None, :] * q[..., None, :, :]).reshape(*p.shape[:-2], 4, p.shape[-1])


class _Qubits:
    """Restart-major qubits x[..., qubit, amplitude, r], their parts, each
    qubit's row ``q`` and its broadcasts ``a`` and ``b`` as the first and
    second factor of a 2x2 product, and a buffer for a sweep's overlaps."""

    def __init__(self, x: np.ndarray):
        self.x, self.re, self.im = x, x.real, x.imag
        self.q = [x[..., k, :, :] for k in range(hc.N_VERTICES)]
        self.a, self.b = [q[..., :, None, :] for q in self.q], [q[..., None, :, :] for q in self.q]
        self.overlap = np.empty(x.shape[:-3] + x.shape[-1:])


class _Work:
    """Every buffer and view that one :func:`_extrapolate` step and its three
    sweeps use on restarts phi of one tensor or a stack, each written before
    it is read.  A factor broadcast over phi's shape is spread into a buffer
    of that shape first, so numpy buffers no operand as large as phi.  A
    sweep finds the views of the array it sweeps, phi or y, by ``id``."""

    def __init__(self, tensor: np.ndarray, phi: np.ndarray):
        lead, r, real = phi.shape[:-3], phi.shape[-1], phi.real.dtype
        self.t = tensor.reshape(*lead, 4, 4)
        self.tt = self.t.swapaxes(-1, -2)
        self.new, self.y = _Qubits(np.empty_like(phi)), _Qubits(np.empty_like(phi))
        self.qubits = {id(phi): _Qubits(phi), id(self.y.x): self.y}
        # [..., a, b, r]: a pair product, its first factor, the products with T, 2x2 terms
        self.pair, self.first, self.tcd, self.tab, self.m = np.empty((5, *lead, 2, 2, r), phi.dtype)
        self.pair_f, self.tcd_f, self.tab_f = (x.reshape(*lead, 4, r).view(real)
                                               for x in (self.pair, self.tcd, self.tab))
        self.m_a, self.m_b = (self.m[..., 0, :, :], self.m[..., 1, :, :]), (self.m[..., 0, :], self.m[..., 1, :])
        # r and v, the squares of their parts (the first halves serve a rescale)
        self.rv = np.empty((2, *phi.shape), phi.dtype)
        (self.r, self.v), self.rv_re, self.rv_im = self.rv, self.rv.real, self.rv.imag
        self.rv_sq, self.rv_im2 = np.empty((2, *self.rv.shape), real)
        self.squares, self.im2, self.rv_sq8 = self.rv_sq[0], self.rv_im2[0], self.rv_sq.reshape(2, *lead, 8, r)
        self.sq = self.squares[..., 0, :], self.squares[..., 1, :]
        self.norms, self.scale = np.empty((2, *lead, 4, r))
        self.n, self.spread = [self.norms[..., k, :] for k in range(4)], np.empty_like(phi)
        # per restart: |r| and |v|, their ratio, alpha, 2 alpha or alpha^2, and a flag
        self.rv_norm, (self.ratio, self.alpha, self.factor) = np.empty((2, *lead, r)), np.empty((3, *lead, r))
        self.flag = np.empty((*lead, r), bool)
        # 1 / norm per qubit, and the factor and flag per restart, broadcast over phi's shape
        self.scale_b, self.factor_b = self.scale[..., None, :], self.factor[..., None, None, :]
        self.flag_b = self.flag[..., None, None, :]


def _normalize(x: _Qubits, out: np.ndarray, w: _Work):
    """Rescale every qubit x[..., :, r] of every restart to unit norm, into
    out, by a multiplication with 1 / norm, and leave the norms in w.norms.

    A norm of at most ``_ZERO_NORM`` (or not a number) raises
    :class:`FloatingPointError` before out is written: restarts of positive
    overlap never reach one, so the solve fails loudly where it would
    otherwise divide by zero.
    """
    np.multiply(x.re, x.re, out=w.squares)
    np.add(w.squares, np.multiply(x.im, x.im, out=w.im2), out=w.squares)
    norms = np.sqrt(np.add(*w.sq, out=w.norms), out=w.norms)
    if not (least := np.minimum.reduce(norms, axis=None)) > _ZERO_NORM:
        raise FloatingPointError(f"a qubit of norm {least:.3g} <= {_ZERO_NORM:g} cannot be rescaled")
    np.reciprocal(norms, out=w.scale)
    w.spread[...] = w.scale_b
    np.multiply(x.x, w.spread, out=out)


def _sweep(tensor: np.ndarray, phi: np.ndarray, work: _Work | None = None, *,
           overlaps: bool = True) -> np.ndarray | None:
    """One full alternating sweep over the four qubits, in place.

    Shapes are restart-major: one tensor, (2, 2, 2, 2) or (4, 4), with
    restarts phi[qubit, amplitude, r] of shape (4, 2, R), or a stack of n
    tensors with (n, 4, 2, R).  Only the products with T see the stack, so
    a code's iterates do not depend on the rest of it.  Every step writes
    into ``work``, the :class:`_Work` of the tensor and of phi (or of the y
    it holds); a call without one builds its own.

    Each qubit in turn is set to its conjugated environment, left
    unnormalized, and all four are rescaled to unit norm once, at the end,
    by a multiplication with 1 / n_k.  The environments are multilinear, so
    a qubit off by a positive factor scales the environments of the later
    qubits without turning them: the rescaled qubits are the iterates of the
    normalize-every-qubit order, up to rounding.  With n_k the norm of qubit
    k as it was used, the overlap after the sweep is |env_4| / (n_1 n_2 n_3)
    = n_4 / (n_1 n_2 n_3).

    The sweep shares two partial contractions of T viewed as a 4x4 matrix
    T[ab, cd].  Tcd[a, b, r] = sum_cd T[abcd] phi3[c, r] phi4[d, r] gives the
    environments of qubits 1 and 2 (Tcd.phi2, then phi1.Tcd with the new
    phi1); Tab[c, d, r] = sum_ab phi1[a, r] phi2[b, r] T[abcd], built from the
    new pair, gives those of qubits 3 and 4 (Tab.phi4, then phi3.Tab).  That
    is two (4, 4) @ (4, R) products, each one real matmul on the float view
    of the pair products, and four 2x2 contractions written as two-term
    elementwise products.

    The tensor is real and every restart has a positive overlap.  For a
    state of norm at most 1 no n_k exceeds the norm of its normalized-order
    environment, and that environment is zero only at an overlap of exactly
    0 (|env_k| >= |<Phi|psi>|, and no update within a sweep lowers the
    overlap), which random starts never meet.  A norm of at most
    ``_ZERO_NORM`` therefore raises :class:`FloatingPointError`
    (:func:`_normalize`) and leaves phi as it was.

    Returns the overlaps |f| after the sweep, one per restart, shaped (R,)
    or (n, R), in a buffer of the work area, or None with ``overlaps=False``,
    which skips them.
    """
    w = _Work(tensor, phi) if work is None else work
    p, q = w.qubits[id(phi)], w.new
    # each 2x2 contraction is one product over [a, b, r] and a sum of its two terms
    w.first[...] = p.a[2]
    np.multiply(w.first, p.b[3], out=w.pair)
    np.matmul(w.t, w.pair_f, out=w.tcd_f)
    np.multiply(w.tcd, p.b[1], out=w.m)
    np.conjugate(np.add(*w.m_b, out=q.q[0]), out=q.q[0])
    np.multiply(q.a[0], w.tcd, out=w.m)
    np.conjugate(np.add(*w.m_a, out=q.q[1]), out=q.q[1])
    w.first[...] = q.a[0]
    np.multiply(w.first, q.b[1], out=w.pair)
    np.matmul(w.tt, w.pair_f, out=w.tab_f)
    np.multiply(w.tab, p.b[3], out=w.m)
    np.conjugate(np.add(*w.m_b, out=q.q[2]), out=q.q[2])
    np.multiply(q.a[2], w.tab, out=w.m)
    np.conjugate(np.add(*w.m_a, out=q.q[3]), out=q.q[3])
    _normalize(q, phi, w)
    if not overlaps:
        return None
    n1, n2, n3, n4 = w.n
    np.multiply(np.multiply(n1, n2, out=p.overlap), n3, out=p.overlap)
    return np.divide(n4, p.overlap, out=p.overlap)


def _contract(tensor: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Overlap <Phi|psi> for restart-major product states, shaped as for :func:`_sweep`."""
    t = tensor.reshape(*phi.shape[:-3], 4, 4).swapaxes(-1, -2)
    pair = _pair(phi[..., 0, :, :], phi[..., 1, :, :])
    tab = (t @ pair.view(pair.real.dtype)).view(pair.dtype)
    return (tab * _pair(phi[..., 2, :, :], phi[..., 3, :, :])).sum(axis=-2)


def _extrapolate(tensor: np.ndarray, phi: np.ndarray, work: _Work | None = None) -> np.ndarray:
    """One SQUAREM step of the sweep map for every restart, in place.

    A sweep leaves the overlap real and positive, so a maximum is a fixed
    point of the sweep in amplitude space and iterates can be differenced.
    Two sweeps take x0 = phi to x1 and x2; with r = x1 - x0, v = x2 -
    2 x1 + x0 (as x2 - (x0 + 2r), exact when a sweep halves every
    amplitude) and alpha = min(-|r| / |v|, -1) over all 8 amplitudes (-1
    when v = 0, giving back x2), y = x0 - 2 alpha r + alpha^2 v is
    normalized per qubit and swept once.  A restart keeps x2 unless that
    sweep reaches at least its overlap.  A qubit of y of norm at most
    ``_ZERO_NORM`` raises :class:`FloatingPointError` (:func:`_normalize`),
    as in the sweep.  Shapes are the restart-major ones of
    :func:`_sweep`, so alpha and every test are per restart, along the
    last axis.  Its buffers, y, r and v among them, are those of ``work``
    (built for the call if not given).  Returns the overlaps of the kept
    points.
    """
    w = _Work(tensor, phi) if work is None else work
    y, r, v = w.y.x, w.r, w.v
    y[...] = phi
    _sweep(tensor, phi, w, overlaps=False)
    np.subtract(phi, y, out=r)
    overlap = _sweep(tensor, phi, w)
    np.add(np.multiply(r, 2.0, out=v), y, out=v)
    np.subtract(phi, v, out=v)
    np.multiply(w.rv_re, w.rv_re, out=w.rv_sq)
    np.add(w.rv_sq, np.multiply(w.rv_im, w.rv_im, out=w.rv_im2), out=w.rv_sq)
    r_norm, v_norm = np.sqrt(np.add.reduce(w.rv_sq8, axis=-2, out=w.rv_norm), out=w.rv_norm)
    w.ratio.fill(0.0)
    np.divide(r_norm, v_norm, out=w.ratio, where=np.greater(v_norm, 0.0, out=w.flag))
    np.minimum(np.negative(w.ratio, out=w.alpha), -1.0, out=w.alpha)
    np.multiply(2.0, w.alpha, out=w.factor)
    w.spread[...] = w.factor_b
    np.subtract(y, np.multiply(r, w.spread, out=r), out=y)
    np.multiply(w.alpha, w.alpha, out=w.factor)
    w.spread[...] = w.factor_b
    np.add(y, np.multiply(v, w.spread, out=v), out=y)
    _normalize(w.y, y, w)
    new = _sweep(tensor, y, w)
    np.greater_equal(new, overlap, out=w.flag)
    np.copyto(phi, y, where=w.flag_b)
    return np.maximum(new, overlap)


def _ascend(tensor: np.ndarray, phi: np.ndarray, max_iter: int):
    """Raise the overlap of every restart of a stack of n codes, in place.

    ``tensor`` is (n, 2, 2, 2, 2) or (n, 4, 4) and ``phi`` restart-major,
    (n, 4, 2, R), so that a code's restarts are the last axis of its row.
    Each iteration is one :func:`_extrapolate` step of three sweeps over
    the codes still in the batch.  A restart is done when its overlap rose
    by less than ``TOL`` over the iteration (a stationarity test adds
    nothing: from a point of gradient norm g a sweep gains about g^2 /
    2|f|); a code leaves the batch, its restarts written back to its row
    of ``phi``, when all of them are done at the same iteration (never at
    the first), with stop "tol", or after ``max_iter`` iterations, with
    stop "max_iter".  Its arithmetic is that of a batch of one.  The steps
    share one :class:`_Work`, built before the first and again whenever a
    code leaves, once the old one is freed.  Returns per code (iterations,
    stop, slack), the slack being the largest drop of any restart's overlap
    over the iterations after the first, or 0: max(0, -g), g its least gain,
    kept per restart by one running minimum and reduced as the code leaves.
    """
    iterations, converged = np.full(len(phi), max_iter), np.zeros(len(phi), dtype=bool)
    least = np.empty(len(phi))
    # the codes still in the batch: their rows of phi, restarts, least gain per restart, overlaps
    rows, batch, lows, overlap = np.arange(len(phi)), phi, np.full((len(phi), phi.shape[-1]), np.inf), 0.0
    work = _Work(tensor, batch)
    for iteration in range(1, max_iter + 1):
        new = _extrapolate(tensor, batch, work)
        gain = new - overlap
        overlap = new
        if iteration == 1:
            continue
        np.minimum(lows, gain, out=lows)
        top = np.maximum.reduce(gain, axis=1)
        if np.minimum.reduce(top) < TOL:
            done = top < TOL
            gone = rows[done]
            iterations[gone], converged[gone] = iteration, True
            phi[gone], least[gone] = batch[done], lows[done].min(axis=1)
            if done.all():
                break
            rows, batch, lows, overlap, tensor = (a[~done] for a in (rows, batch, lows, overlap, tensor))
            del work
            work = _Work(tensor, batch)
    else:
        phi[rows], least[rows] = batch, lows.min(axis=1)
    return iterations, ["tol" if c else "max_iter" for c in converged], np.maximum(0.0, -least)


# codes per batch: at 8, 13 and 39 codes the solve of the 39 orbit reps
# takes about 0.83, 0.79 and 0.74-0.79 of its time at 4 (medians of rotating
# rounds), while its peak traced memory, work area included, grows from
# 0.83 MB at 4 to 1.27, 1.92 and 4.69 MB
BATCH = 8


def solve_codes(codes, policy: SolvePolicy | None = None):
    """Yield the best product-state overlap of each code, in input order.

    Up to ``BATCH`` codes are solved together by :func:`_ascend`, each with
    ``RESTARTS`` restarts seeded from the policy seed and the code, and its
    ``RIDERS`` real stabilizer-product starts (:func:`_riders`), ranked from
    its exact +-1 amplitudes.  A code stops with ``stop == "tol"`` at the
    first iteration in which every one of its restarts and riders improved
    its overlap by less than ``TOL``, or with ``stop == "max_iter"``
    (flagged unconverged, not raised).  Its witness is the lowest-indexed
    restart at the best overlap, its real witness the first rider at the
    best rider overlap, so results do not depend on order or batching.  A
    batch is solved once the last is taken.
    """
    policy = policy or SolvePolicy()
    codes = iter(codes)
    while batch := [hc.check_code(h) for h in itertools.islice(codes, BATCH)]:
        tensors = np.array([sv.state_tensor(sv.build_state(h)) for h in batch])
        signs = (4 * tensors).astype(np.int64)
        starts = np.array([_random_product_batch(np.random.default_rng([policy.seed, h]), RESTARTS)
                           for h in batch])
        starts = np.concatenate((starts, _riders(signs)), axis=1)
        phi = np.ascontiguousarray(starts.transpose(0, 2, 3, 1))
        iterations, stops, slacks = _ascend(tensors, phi, policy.max_iter)
        overlaps = np.abs(_contract(tensors, phi))
        restarts = np.ascontiguousarray(phi.transpose(0, 3, 1, 2))  # (n, R, 4, 2)
        for k, (overlap, riders) in enumerate(zip(overlaps[:, :RESTARTS], overlaps[:, RESTARTS:])):
            best, real = int(np.argmax(overlap)), RESTARTS + int(np.argmax(riders))
            # Rounding can push the overlap of a unit product pair a hair above 1;
            # clamp so product states report E_g = 0 rather than -1e-16.
            best_overlap = min(float(overlap[best]), 1.0)
            hit = overlap >= best_overlap - HIT_WINDOW
            yield GeSolution(
                overlap=best_overlap,
                eg=-2.0 * math.log2(best_overlap) + 0.0,
                # a copy, so that a kept solution does not hold its batch's restarts
                witness=ProductState(restarts[k, best].copy()),
                restarts_hit=int(np.count_nonzero(hit)),
                converged=stops[k] == "tol",
                iterations=int(iterations[k]),
                stop=stops[k],
                real_overlap=float(overlaps[k, real]),
                real_witness=ProductState(restarts[k, real].copy()),
                candidates=restarts[k, :RESTARTS][hit],
                tensor=tensors[k],
                monotone_slack=float(slacks[k]),
            )


def solve_code(h: int, policy: SolvePolicy | None = None) -> GeSolution:
    """Best product-state overlap of the state named by a code: :func:`solve_codes` of one."""
    return next(solve_codes([h], policy))


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
    terms = np.take(phi.conj(), _PAIR_I, axis=1) * np.take(phi, _PAIR_J, axis=1)
    masks = (np.abs(np.add(terms[..., 0], terms[..., 1])) > 1.0 - MERGE_TOL) @ _PAIR_BITS
    return [_PARTITIONS[m] for m in masks]


# the start grid's box centres over [0, pi]^2 and the offsets of a box's four
# children, in units of the new half-width
_START = (np.indices((START_GRID, START_GRID)).reshape(2, -1).T + 0.5) * (math.pi / START_GRID)
_CHILDREN = 2.0 * np.indices((2, 2)).reshape(2, -1).T - 1.0


def _real_pairs(angles: np.ndarray) -> np.ndarray:
    """Pair products a_a b_b of the real qubits a, b = (cos t, sin t) of the
    angle pairs angles[..., N, :], shaped (..., 4, N) by :func:`_pair`, with
    the angle pairs on its restart axis."""
    trig = np.empty((*angles.shape[:-2], 2, *angles.shape[-2:]))
    np.cos(angles, out=trig[..., 0, :, :])
    np.sin(angles, out=trig[..., 1, :, :])
    return _pair(trig[..., 0], trig[..., 1])


def _top_singular(tensor: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sigma_max of M = sum_ab a_a b_b T[a, b, :, :] for each column of the
    pair products of :func:`_real_pairs`; the closed form sigma^2 = (|M|^2 +
    sqrt(|M|^4 - 4 det^2)) / 2, without its cancellation.  One tensor (2, 2,
    2, 2) with pairs (4, N) gives (N,); a stack (n, 2, 2, 2, 2) with pairs
    (4, N) or (n, 4, N) gives (n, N), one (4, 4) @ (4, N) product per code."""
    m = tensor.reshape(*tensor.shape[:-4], 4, 4).swapaxes(-1, -2) @ pairs
    m00, m01, m10, m11 = m.swapaxes(0, -2)
    return 0.5 * (np.hypot(m00 + m11, m01 - m10) + np.hypot(m00 - m11, m01 + m10))


# the start grid's pair products, which do not depend on the tensor
_START_PAIRS = _real_pairs(_START)


def _best_real_overlap(tensors: np.ndarray, overlaps, best) -> list:
    """(best real product overlap found, a proved upper bound on all of
    them, evaluations), one per code, of a stack of n tensors (n, 2, 2, 2,
    2), their n overlaps and the n best real overlaps already found.

    With real qubits 1 and 2 fixed by angles t1, t2, the best real qubits 3
    and 4 are the top singular vectors of M (:func:`_top_singular`), so the
    real maximum is that of sigma_max(M) over [0, pi]^2.  Each derivative
    of it is an overlap with a unit product state, so a box of half-width w
    and centre value v holds nothing above v + 2 |T| w.  A START_GRID^2 grid
    of boxes, one product of every tensor with ``_START_PAIRS``, starts the
    proof.  While the best found is short of overlap - REAL_GAP,
    branch-and-bound, code by code, quarters every box whose bound reaches
    it, until none does or the next level would pass MAX_EVALUATIONS; the
    bound is the final boxes' largest.  Every code gets the bits of its
    proof alone, whatever else the stack holds.
    """
    half = math.pi / (2 * START_GRID)
    found = []
    for tensor, overlap, top, vals in zip(tensors, overlaps, best, _top_singular(tensors, _START_PAIRS)):
        ceiling, slope = overlap - REAL_GAP, 2.0 * float(np.linalg.norm(tensor))
        top, boxes, w, retired, evaluations = max(top, float(vals.max())), _START, half, -math.inf, vals.size
        while top < ceiling:
            live = vals + slope * w >= ceiling
            retired = max(retired, np.max(vals[~live], initial=-math.inf) + slope * w)
            boxes, vals = boxes[live], vals[live]
            if not len(boxes) or evaluations + 4 * len(boxes) > MAX_EVALUATIONS:
                break
            w /= 2.0
            boxes = (boxes[:, None] + w * _CHILDREN).reshape(-1, 2)
            vals = _top_singular(tensor, _real_pairs(boxes))
            evaluations += vals.size
            top = max(top, float(vals.max()))
        found.append((top, float(max(retired, np.max(vals, initial=-math.inf) + slope * w)), evaluations))
    return found


def _pattern(sol: GeSolution, best: float, bound: float, evaluations: int) -> DegeneracyPattern:
    """The degeneracy pattern of a solution from its best real overlap and
    the (bound, evaluations) of its proof, if it needed one."""
    real = best >= sol.overlap - HIT_WINDOW
    if not real and bound >= sol.overlap - REAL_GAP:
        raise RealityUndecided(f"best real overlap {best:.12f} and bound {bound:.12f} decide "
                               f"nothing against {sol.overlap:.12f} in {evaluations} evaluations")
    partitions = _partition_sizes(sol.candidates)
    census = tuple(
        (_PARTITION_LABELS[p], k)
        for p, k in sorted(Counter(partitions).items(), key=lambda kv: (len(kv[0]), kv[0]))
    )
    return DegeneracyPattern(
        label=_PARTITION_LABELS[min(partitions, key=len)], reality="R" if real else "C",
        census=census, evaluations=evaluations,
    )


def degeneracy_patterns(sols):
    """Grouping and reality of the closest product state of each solution.

    The label follows the declared tie-break: among all restarts within
    1e-9 of the best overlap, the coarsest grouping (fewest distinct
    single-qubit states) wins, earlier restarts breaking ties.  Reality is
    "R" when the solve's real riders come within ``HIT_WINDOW`` of the best
    overlap.  The codes they leave short go to one stacked
    :func:`_best_real_overlap` proof, seeded with their riders' best: "R"
    if it finds a real overlap that close after all, "C" when its proved
    bound stays ``REAL_GAP`` below the overlap.  Anything else raises
    :class:`RealityUndecided`, but only when the returned iterator reaches
    that solution: the proof itself runs on the call.  Each pattern is the
    one its solution gets in a stack of one.
    """
    sols = list(sols)
    short = [k for k, sol in enumerate(sols) if sol.real_overlap < sol.overlap - HIT_WINDOW]
    tensors = np.array([sols[k].tensor for k in short]).reshape(-1, 2, 2, 2, 2)
    proofs = dict(zip(short, _best_real_overlap(tensors, [sols[k].overlap for k in short],
                                                [sols[k].real_overlap for k in short])))
    return (_pattern(sol, *proofs.get(k, (sol.real_overlap, math.inf, 0))) for k, sol in enumerate(sols))


def degeneracy_pattern(sol: GeSolution) -> DegeneracyPattern:
    """Grouping and reality of the closest product state of one solution:
    :func:`degeneracy_patterns` of one."""
    return next(degeneracy_patterns([sol]))


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

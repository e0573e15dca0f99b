"""Exhaustive orbits of all 32768 codes under local moves.

A group element is a vertex permutation, then X moves on a vertex set, then
Z moves: 24 * 16 * 16 = 6144 elements.  A Z move toggles one loop bit, and
X moves and permutations map loops to loops, so every orbit is a union of
the 2**11 = 2048 Z cosets, and min-label propagation on their loop-free
members through the X moves and the three adjacent transpositions (which
generate all 24 permutations), loops dropped, is exact.  So each orbit's
smallest code, its canonical representative, is loop-free.

``images`` gives the loop-cleared images under the 384 (permutation, X mask)
pairs; those that give a loop-free r back, each with one Z mask, are the
stabilizer of r.  So a class that holds every image of its rep r and has
6144 / |Stab(r)| codes is one orbit, as ``hgstate verify`` checks.
``enumerate_orbits`` is memoized per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import hypercore as hc

GROUP_ORDER = 16 * 16 * 24
# the adjacent transpositions of vertices (1 2), (2 3) and (3 4)
TRANSPOSITIONS = ((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3))

# code-space bit masks of the edges of each cardinality
_EDGE_BITS_BY_SIZE = {
    k: sum(1 << (e - 1) for e in range(1, hc.N_BASIS) if hc.edge_size(e) == k)
    for k in (1, 2, 3, 4)
}


@dataclass(frozen=True, slots=True)
class OrbitTable:
    """Total partition of the code space into orbits.

    ``class_id[c]`` is the orbit id of code c; ids are assigned in
    ascending order of the orbit's canonical (smallest) representative.
    ``reps``, ``sizes`` and ``rep_rank`` line up with the ids; rep_rank is
    the rank of the standardized representative.
    """

    class_id: np.ndarray  # uint16, shape (32768,)
    reps: np.ndarray      # uint16, one per orbit
    sizes: np.ndarray     # int64, one per orbit
    rep_rank: np.ndarray  # int64, one per orbit

    @property
    def n_orbits(self) -> int:
        return int(self.reps.size)


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    """One orbit as seen from a single code."""

    rep: int
    size: int
    rank: int
    m: int  # see orbit_of()


def generator_tables() -> list[np.ndarray]:
    """uint16 image tables, read with ``np.take``, of a generating set over the
    whole code space: four X moves, four Z moves, three ``TRANSPOSITIONS``."""
    tables = [hc.x_image_table(i) for i in hc.VERTICES]
    tables += [hc.z_image_table(i) for i in hc.VERTICES]
    tables += [hc.permutation_image_table(p) for p in TRANSPOSITIONS]
    return tables


def images(codes) -> np.ndarray:
    """Images of codes under the 384 (permutation, X mask) pairs, loops cleared,
    uint16 (384, len(codes)).  S_(k+1) = S_k, t_k S_k, ..., t_1...t_k S_k for
    t_k = (k k+1), one coset per place of vertex k+1; each X then doubles it."""
    stack = np.asarray(codes).reshape(1, -1)
    for k in range(len(TRANSPOSITIONS)):
        stack = np.concatenate(list(accumulate(TRANSPOSITIONS[k::-1], hc.act, initial=stack)))
    for i in hc.VERTICES:
        stack = np.concatenate([stack, hc.act(stack, x_mask=1 << (i - 1))])
    return hc.strip_loops(stack).astype(np.uint16, copy=False)


def standardized_rank(codes) -> np.ndarray:
    """Rank of the standardized form of each code, without standardizing.

    Standardization strips loops always and strips 3-edges exactly when
    the 4-edge is present, so the outcome is readable off the raw bits:
    rank 4 iff the 4-edge bit is set, else 3 iff any 3-edge bit, else 2
    iff any 2-edge bit, else 0.  (Checked against real standardization in
    the tests.)  Returned as uint8, one per code.
    """
    codes = np.asarray(hc.strip_loops(codes))
    rank = np.zeros(codes.shape, dtype=np.uint8)
    for k in (2, 3, 4):
        rank[(codes & _EDGE_BITS_BY_SIZE[k]) != 0] = k
    return rank


@lru_cache(maxsize=1)
def enumerate_orbits() -> OrbitTable:
    """Partition the code space by min-label propagation on the loop-free codes:
    the generators are involutions, so sweeps that lower each label to the
    smallest one a generator reaches end at the orbit minima.  All uint16."""
    codes = hc.ALL_CODES
    quotient = codes[hc.strip_loops(codes) == codes]  # one loop-free code per Z coset
    labels = positions = np.arange(quotient.size, dtype=np.uint16)
    index = np.zeros_like(codes)  # index[quotient[k]] == k; read only at loop-free codes
    index[quotient] = positions
    pairs = [(hc.VERTICES, 1 << (i - 1)) for i in hc.VERTICES] + [(p, 0) for p in TRANSPOSITIONS]
    moves = [np.take(index, hc.strip_loops(hc.act(quotient, p, x))) for p, x in pairs]
    while True:
        before = labels
        for m in moves:
            labels = np.minimum(labels, np.take(labels, m))
        if np.array_equal(labels, before):
            break
    # the fixed points are the orbit minima; ids count them in ascending order
    is_rep = labels == positions
    ids = np.cumsum(is_rep, dtype=np.uint16) - 1
    class_id = np.take(np.take(ids, labels), np.take(index, hc.strip_loops(codes)))
    reps = quotient[is_rep]
    rep_rank = standardized_rank(reps).astype(np.int64)
    arrays = (class_id, reps, np.bincount(class_id).astype(np.int64), rep_rank)
    for a in arrays:  # every caller in the process shares them
        a.flags.writeable = False
    return OrbitTable(*arrays)


def orbit_of(h: int, table: OrbitTable | None = None) -> OrbitRecord:
    """Orbit membership data of one code.  Its multiplicity m is the orbit
    size over 256 for standardized rank 4, over 128 for rank 3, and over
    16 for graph orbits (rank 2 or 0)."""
    h = hc.check_code(h)
    table = table or enumerate_orbits()
    cid = int(table.class_id[h])
    size = int(table.sizes[cid])
    rank = int(table.rep_rank[cid])
    return OrbitRecord(rep=int(table.reps[cid]), size=size, rank=rank,
                       m=size // {4: 256, 3: 128}.get(rank, 16))


def rank_census(table: OrbitTable | None = None) -> dict[int, int]:
    """Number of codes whose standardized form has each rank.

    Raises if any orbit mixes standardized ranks; that would break the
    counting argument and must never happen.
    """
    table = table or enumerate_orbits()
    per_code = standardized_rank(hc.ALL_CODES)
    mixed = np.flatnonzero(per_code != np.take(table.rep_rank.astype(np.uint8), table.class_id))
    if mixed.size:
        cid = int(table.class_id[mixed[0]])
        raise RuntimeError(f"orbit {cid} (rep {table.reps[cid]}) mixes standardized ranks")
    return {r: int(n) for r, n in enumerate(np.bincount(per_code)) if n}

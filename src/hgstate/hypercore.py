"""Hypergraphs on four vertices as 15-bit codes, and the local moves on them.

A hyperedge is a nonempty subset of the vertices {1,2,3,4}, stored as a
4-bit mask with bit (v-1) set when vertex v belongs to the edge.  A
hypergraph is a set of such edges, stored as a 15-bit code with bit (e-1)
set when edge mask e is present.  Codes therefore run over [0, 2**15); code
0 is the edgeless hypergraph.

Each code determines a sign function g on the 16 computational basis
strings: g(mu) is the parity of the number of edges contained in the
support of mu.  This map is a bijection between codes and sign functions
with g(0000) = 0 (one binary Moebius transform maps each to the other),
which is what lets an equally weighted four-qubit state be named by a
single integer.  Packed, g is one 16-bit word with bit mu equal to g(mu);
the exhaustive checks run on the words of ``ALL_CODES``, every code as one
read-only uint16 array, made by ``sign_words``, the one checked path.

Local moves act directly on codes: X on vertex i replaces the edge set E by
N(i) xor E, N(i) the neighborhood of i; Z on vertex i toggles the loop {i};
vertex permutations relabel every edge.  None leaves the 15-bit code space;
``act`` applies any product of them to one code or to a code array, and
``strip_loops`` is the Z quotient.

Every public call checks each argument once, under one rule.  A single code,
edge, vertex, mask or basis index must be an integer (numpy integers pass): a
non-integer raises TypeError, and a value out of range raises ValueError
naming the range.  Code and word arrays must have an integer dtype.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

import numpy as np

N_VERTICES = 4
N_BASIS = 1 << N_VERTICES          # 16 basis strings
N_EDGE_KINDS = N_BASIS - 1         # 15 possible hyperedges
N_CODES = 1 << N_EDGE_KINDS        # 32768 hypergraphs
FULL_EDGE = N_BASIS - 1            # the 4-vertex edge {1,2,3,4}

# every code once, in order: the one whole-space array
ALL_CODES = np.arange(N_CODES, dtype=np.uint16)
ALL_CODES.flags.writeable = False

VERTICES = tuple(range(1, N_VERTICES + 1))

# Permutations are tuples p of length 4 where p[k] is the image of vertex k+1.
ALL_PERMUTATIONS = tuple(itertools.permutations(VERTICES))

# (edge mask, code bit, vertex digits) of the 15 edges in display order:
# largest first, then vertex-lexicographic
_DISPLAY = tuple(sorted(((e, 1 << (e - 1), "".join(str(v) for v in VERTICES if e >> (v - 1) & 1))
                         for e in range(1, N_BASIS)), key=lambda d: (-len(d[2]), d[2])))


def _check(values, lo: int, stop: int, what: str, arrays: bool = False):
    """The one range check, lo <= value < stop.  A single value comes back as
    an int through ``operator.index``: a non-integer raises TypeError.  Where
    ``arrays`` allows, an integer list, tuple or array comes back as an array,
    as it is (one max, and one min if signed or lo > 0; no copy).  Out of
    range raises ValueError naming [lo, stop)."""
    if arrays and isinstance(values, (np.ndarray, list, tuple)) and np.ndim(values):
        a = np.asarray(values)
        kind = a.dtype.kind
        if kind not in "iu" or a.size and (a.max() >= stop or (lo or kind == "i") and a.min() < lo):
            raise ValueError(f"{what}s must be integers in [{lo}, {stop})")
        return a
    value = operator.index(values)
    if not lo <= value < stop:
        raise ValueError(f"{what} must be in [{lo}, {stop}), got {values!r}")
    return value


def check_edge(e: int) -> int:
    return _check(e, 1, N_BASIS, "edge mask")


def check_code(h: int) -> int:
    return _check(h, 0, N_CODES, "hypergraph code")


def edge_mask(vertices) -> int:
    """Pack an iterable of distinct vertices into an edge mask."""
    mask = 0
    for v in vertices:
        bit = 1 << (_check(v, 1, N_VERTICES + 1, "vertex") - 1)
        if mask & bit:
            raise ValueError(f"duplicate vertex {v} in edge")
        mask |= bit
    return check_edge(mask)


def edge_vertices(e: int) -> tuple[int, ...]:
    """Unpack an edge mask into its sorted vertices."""
    e = check_edge(e)
    return tuple(v for v in VERTICES if e & (1 << (v - 1)))


def edge_size(e: int) -> int:
    """Number of vertices in an edge mask (1 for a loop, up to 4)."""
    return check_edge(e).bit_count()


def edges_of(h: int) -> tuple[int, ...]:
    """All edge masks stored in a code, in the display order of ``format_edges``
    and the reports: largest edges first, then vertex-lexicographic."""
    return _edges(check_code(h))


def _edges(h: int) -> tuple[int, ...]:
    return tuple(e for e, bit, _ in _DISPLAY if h & bit)


def code_of_edges(edges) -> int:
    """Assemble a code from an iterable of distinct edge masks."""
    h = 0
    for e in edges:
        bit = 1 << (check_edge(e) - 1)
        if h & bit:
            raise ValueError(f"duplicate edge {format_edges(bit)}")
        h |= bit
    return h


# ---------------------------------------------------------------------------
# sign functions

# bit mu of a 16-bit word, one entry per basis index mu
_BITS = 1 << np.arange(N_BASIS, dtype=np.uint16)
# the basis indices that read 0 on vertex v+1, one 16-bit mask per vertex
_LOWER = (0x5555, 0x3333, 0x0F0F, 0x00FF)


def _subset_xor(words):
    """Binary Moebius transform of 16-bit words, an int or an integer array:
    bit mu stands for basis index mu, and bit S of the result is the xor of
    the bits T over all T inside S.  Over GF(2) it is its own inverse, so it
    maps edge indicators to signs and back."""
    for v, lower in enumerate(_LOWER):
        words = words ^ ((words & lower) << (1 << v))
    return words


def signs_from_hypergraph(h: int) -> np.ndarray:
    """Sign function of a code: g[mu] = parity of edges inside supp(mu).

    Returned as a boolean array over the 16 basis indices; basis index mu
    has bit (v-1) set when vertex v reads 1.
    """
    return (_subset_xor(check_code(h) << 1) & _BITS) != 0


def hypergraph_from_signs(g) -> int:
    """Invert ``signs_from_hypergraph``: edge S is present exactly when the
    xor of g over all subsets of S is 1.  Rejects g(0000) = 1, a hypergraph
    state times a global minus sign the caller has to strip first, and any
    entry but 0 or 1."""
    f = np.asarray(g)
    if f.shape != (N_BASIS,):
        raise ValueError(f"sign function must have 16 entries, got shape {f.shape}")
    bad = np.flatnonzero((f != 0) & (f != 1))
    if bad.size:
        raise ValueError(f"sign function entry {bad[0]} is {f[bad[0]].item()!r}, not 0 or 1")
    return int(codes_of_words(f.astype(bool) @ _BITS))


def sign_words(codes) -> np.ndarray:
    """Sign functions of integer codes as uint16 words, one per code.

    Bit mu of a word is g(mu).  A code shifted up one bit is the edge
    indicator over basis indices (index 0, the empty edge, never set), so
    one Moebius transform turns it into the signs.  A single code gives a
    numpy uint16.
    """
    codes = _check(codes, 0, N_CODES, "hypergraph code", arrays=True)
    return _subset_xor(np.asarray(codes, dtype=np.uint16) << 1)


def codes_of_words(words) -> np.ndarray:
    """Invert ``sign_words`` by one more Moebius transform, shifted down a
    bit.  A single word gives an int."""
    words = _check(words, 0, 1 << N_BASIS, "sign word", arrays=True)
    if np.any(words & 1):
        raise ValueError("sign function has g(0000) = 1; flip the global phase first")
    return _subset_xor(words) >> 1


def sign_matrix(codes) -> np.ndarray:
    """Sign functions of many codes as a boolean (len, 16) array: the bits
    of ``sign_words`` spread over a new last axis."""
    return (sign_words(codes)[..., None] & _BITS) != 0


def flip_basis(words, i: int):
    """Sign words read at mu ^ bit_i: swap the bits of each basis pair
    that differ in vertex i, one shift each way."""
    i = _check(i, 1, N_VERTICES + 1, "vertex")
    lower, shift = _LOWER[i - 1], 1 << (i - 1)
    return ((words & lower) << shift) | ((words >> shift) & lower)


# ---------------------------------------------------------------------------
# local moves: one shift-and-xor formula per move, applied by ``act`` to a
# single code as an int and to a code array as it is; the uint16 image
# tables apply the same formulas to ALL_CODES, and np.take reads them twice
# as fast as indexing does

# code bit of the loop on vertex v+1
_LOOP = tuple(1 << ((1 << v) - 1) for v in range(N_VERTICES))
# code bits of every edge but the loops
_LOOP_FREE = N_CODES - 1 ^ sum(_LOOP)
# code bits of the edges that contain vertex v+1, its loop excepted
_X_SOURCES = tuple(
    sum(1 << (e - 1) for e in range(1, N_BASIS) if e >> v & 1 and e != 1 << v)
    for v in range(N_VERTICES)
)


def loop_words(codes, i: int):
    """0xFFFF where the code stores the loop {i}, else 0: the global sign a
    loop on i puts on the sign word of an X move on i, as uint16 words."""
    i = _check(i, 1, N_VERTICES + 1, "vertex")
    loops = _check(codes, 0, N_CODES, "hypergraph code", arrays=True) & _LOOP[i - 1]
    return (loops != 0) * np.uint16(0xFFFF)


@lru_cache(maxsize=len(ALL_PERMUTATIONS))
def _permutation_shifts(p: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(shift, mask) pairs of p: the code bits in one mask move together."""
    if sorted(p) != list(VERTICES):
        raise ValueError(f"not a permutation of 1..4: {p!r}")
    masks: dict[int, int] = {}
    for e in range(1, N_BASIS):
        image = sum(1 << (p[k] - 1) for k in range(N_VERTICES) if e >> k & 1)
        masks[image - e] = masks.get(image - e, 0) | 1 << (e - 1)
    return tuple(masks.items())


def _permuted(codes, p: tuple[int, ...]):
    if p == VERTICES:
        return codes
    moved = codes & 0
    for shift, bits in _permutation_shifts(p):
        part = codes & bits
        moved = moved | (part << shift if shift >= 0 else part >> -shift)
    return moved


def _x_moved(codes, x_mask: int):
    for v in range(N_VERTICES):
        if x_mask >> v & 1:
            # each edge through v+1 but its loop toggles its rest, 2**v code bits lower
            codes = codes ^ ((codes & _X_SOURCES[v]) >> (1 << v))
    return codes


def act(codes, p=VERTICES, x_mask: int = 0, z_mask: int = 0):
    """The group element (p, x_mask, z_mask): relabel every edge through the
    permutation p, then X on each vertex v with bit v-1 of x_mask set, then Z
    on each vertex of z_mask.  A single code gives an int; an array keeps its
    dtype, and the identity returns it as is.  X moves commute with each
    other and with Z moves at code level, so (p2, x2, z2)(p1, x1, z1) is
    (p2 p1, x2 ^ p2(x1), z2 ^ p2(z1)), p(m) the vertex mask m relabeled.
    """
    codes = _check(codes, 0, N_CODES, "hypergraph code", arrays=True)
    x_mask = _check(x_mask, 0, N_BASIS, "X mask")
    z_mask = _check(z_mask, 0, N_BASIS, "Z mask")
    codes = _x_moved(_permuted(codes, tuple(p)), x_mask)
    if z_mask:
        codes = codes ^ sum(loop for v, loop in enumerate(_LOOP) if z_mask >> v & 1)
    return codes


def strip_loops(codes):
    """The Z quotient: every loop cleared by Z moves, the loop-free member
    of the code's Z coset.  A single code gives an int, an array keeps its dtype."""
    return _check(codes, 0, N_CODES, "hypergraph code", arrays=True) & _LOOP_FREE


def neighborhood(h: int, i: int) -> tuple[int, ...]:
    """Edges e \\ {i} for every stored edge containing vertex i, ordered like
    ``edges_of``.  A loop on i would give the empty set, a global phase
    rather than an edge, so it is omitted."""
    h = check_code(h)
    return _edges(_x_moved(h, 1 << (_check(i, 1, N_VERTICES + 1, "vertex") - 1)) ^ h)


def x_image_table(i: int) -> np.ndarray:
    """X on vertex i of every code at once, as uint16: gather with ``np.take``."""
    return _x_moved(ALL_CODES, 1 << (_check(i, 1, N_VERTICES + 1, "vertex") - 1))


def z_image_table(i: int) -> np.ndarray:
    """Z on vertex i of every code at once, as uint16: gather with ``np.take``."""
    return ALL_CODES ^ _LOOP[_check(i, 1, N_VERTICES + 1, "vertex") - 1]


def permutation_image_table(p) -> np.ndarray:
    """Every code relabeled through p at once, as uint16: gather with ``np.take``."""
    return _permuted(ALL_CODES, tuple(p))


# ---------------------------------------------------------------------------
# rank and the standard form


def rank(h: int) -> int:
    """Largest edge cardinality in the code; 0 for the edgeless hypergraph."""
    h = check_code(h)
    return next((len(digits) for _, bit, digits in _DISPLAY if h & bit), 0)


def standardize(h: int) -> int:
    """Loop-free orbit representative; for rank-4 codes also 3-edge-free.

    When the 4-vertex edge is present, each 3-edge is removed by an X move
    on its one absent vertex.  That X toggles the 3-edge against the 4-edge
    and no other 3-edge, because every other edge through that vertex has
    at most 3 vertices, so the X mask is read off the code at once; loops
    never change what an X move toggles, so one final clearing of loops
    with Z moves suffices.
    """
    h = check_code(h)
    x_mask = sum(1 << v for v in range(N_VERTICES)
                 if h >> (FULL_EDGE - 1) & h >> (FULL_EDGE ^ 1 << v) - 1 & 1)
    return _x_moved(h, x_mask) & _LOOP_FREE


# ---------------------------------------------------------------------------
# text form


def parse_edges(text: str) -> int:
    """Parse a comma-separated hyperedge list such as ``"1234,123"``.

    Each group is a run of vertex digits (a single digit is a loop); the
    empty string is the edgeless hypergraph.  Rejects characters outside
    1..4, repeated vertices and repeated groups, naming the group.
    """
    text = text.strip()
    if not text:
        return 0
    edges = []
    for token in text.split(","):
        token = token.strip()
        # int() also reads non-ASCII digits (Arabic-Indic, fullwidth); only ASCII 1-4 pass
        if not token or set(token) - set("1234"):
            raise ValueError(f"edge {token!r} is not a run of the vertex digits 1-4")
        try:
            edges.append(edge_mask(map(int, token)))
        except ValueError as exc:
            raise ValueError(f"edge {token!r}: {exc}") from None
    return code_of_edges(edges)


def format_edges(h: int) -> str:
    """Render a code in the text form accepted by ``parse_edges``."""
    h = check_code(h)
    return ",".join(digits for _, bit, digits in _DISPLAY if h & bit)


def basis_string(mu: int) -> str:
    """Display form of a basis index: vertex 1 is the leftmost character."""
    mu = _check(mu, 0, N_BASIS, "basis index")
    return "".join(str(mu >> v & 1) for v in range(N_VERTICES))

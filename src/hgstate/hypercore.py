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

Local moves act directly on codes: X on vertex i replaces the edge set E
by N(i) xor E where N(i) is the neighborhood of i, Z on vertex i toggles
the loop {i}, and vertex permutations relabel every edge.  All three are
involutions or group actions and never leave the 15-bit code space.
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

_EDGE_SIZE = tuple(bin(e).count("1") for e in range(N_BASIS))


# operator.index rejects floats and other non-integers; numpy integers pass
def _check_vertex(i: int) -> None:
    if operator.index(i) not in VERTICES:
        raise ValueError(f"vertex must be in 1..4, got {i!r}")


def _check_edge(e: int) -> None:
    if not 1 <= operator.index(e) <= N_EDGE_KINDS:
        raise ValueError(f"edge mask must be in 1..15, got {e!r}")


def _check_code(h: int) -> None:
    if not 0 <= operator.index(h) < N_CODES:
        raise ValueError(f"hypergraph code must be in [0, 32768), got {h!r}")


def edge_mask(vertices) -> int:
    """Pack an iterable of distinct vertices into an edge mask."""
    mask = 0
    for v in vertices:
        _check_vertex(v)
        bit = 1 << (v - 1)
        if mask & bit:
            raise ValueError(f"duplicate vertex {v} in edge")
        mask |= bit
    _check_edge(mask)
    return mask


def edge_vertices(e: int) -> tuple[int, ...]:
    """Unpack an edge mask into its sorted vertices."""
    _check_edge(e)
    return tuple(v for v in VERTICES if e & (1 << (v - 1)))


def edge_size(e: int) -> int:
    """Number of vertices in an edge mask (1 for a loop, up to 4)."""
    _check_edge(e)
    return _EDGE_SIZE[e]


def edges_of(h: int) -> tuple[int, ...]:
    """All edge masks stored in a code, largest edges first.

    The ordering (size descending, then vertex-lexicographic) is the
    display order used by ``format_edges`` and the reports.
    """
    _check_code(h)
    present = [e for e in range(1, N_BASIS) if h >> (e - 1) & 1]
    present.sort(key=lambda e: (-_EDGE_SIZE[e], edge_vertices(e)))
    return tuple(present)


def code_of_edges(edges) -> int:
    """Assemble a code from an iterable of distinct edge masks."""
    h = 0
    for e in edges:
        _check_edge(e)
        bit = 1 << (e - 1)
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
    """Binary Moebius transform of 16-bit words, an int or an integer array.

    Bit mu of a word stands for basis index mu; bit S of the result is the
    xor of the bits T over all T inside S.  Over GF(2) the transform is
    its own inverse, so it maps edge indicators to signs and back.
    """
    for v, lower in enumerate(_LOWER):
        words = words ^ ((words & lower) << (1 << v))
    return words


def signs_from_hypergraph(h: int) -> np.ndarray:
    """Sign function of a code: g[mu] = parity of edges inside supp(mu).

    Returned as a boolean array over the 16 basis indices; basis index mu
    has bit (v-1) set when vertex v reads 1.
    """
    _check_code(h)
    return sign_matrix(int(h))


def hypergraph_from_signs(g) -> int:
    """Invert ``signs_from_hypergraph`` by a binary Moebius transform.

    Edge S is present exactly when the xor of g over all subsets of S is 1.
    Rejects sign functions with g(0000) = 1: those differ from a hypergraph
    state by a global minus sign the caller has to strip first.
    """
    f = np.asarray(g, dtype=bool)
    if f.shape != (N_BASIS,):
        raise ValueError(f"sign function must have 16 entries, got shape {f.shape}")
    if f[0]:
        raise ValueError("sign function has g(0000) = 1; flip the global phase first")
    return int(_subset_xor(f @ _BITS) >> 1)


def sign_words(codes) -> np.ndarray:
    """Sign functions of integer codes as uint16 words, one per code.

    Bit mu of a word is g(mu).  A code shifted up one bit is the edge
    indicator over basis indices (index 0, the empty edge, never set), so
    one Moebius transform turns it into the signs.  Every call checks the
    range with one ``min`` and one ``max``, which allocate nothing.
    """
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu" or codes.size and (codes.min() < 0 or codes.max() >= N_CODES):
        raise ValueError("hypergraph codes must be integers in [0, 32768)")
    return _subset_xor(codes.astype(np.uint16, copy=False) << 1)


def sign_matrix(codes) -> np.ndarray:
    """Sign functions of many codes as a boolean (len, 16) array: the bits
    of ``sign_words`` spread over a new last axis."""
    return (sign_words(codes)[..., None] & _BITS) != 0


def flip_basis(words, i: int):
    """Sign words read at mu ^ bit_i: swap the bits of each basis pair
    that differ in vertex i, one shift each way."""
    _check_vertex(i)
    lower, shift = _LOWER[i - 1], 1 << (i - 1)
    return ((words & lower) << shift) | ((words >> shift) & lower)


# ---------------------------------------------------------------------------
# local moves: one shift-and-xor formula per move, applied to a validated
# int by the scalar moves and to ``ALL_CODES`` by the uint16 image tables,
# which np.take reads about twice as fast as indexing with them

# code bit of the loop on vertex v+1, and all four together
_LOOP = tuple(1 << ((1 << v) - 1) for v in range(N_VERTICES))
LOOP_BITS = sum(_LOOP)
# code bits of the edges that contain vertex v+1, its loop excepted
_X_SOURCES = tuple(
    sum(1 << (e - 1) for e in range(1, N_BASIS) if e >> v & 1 and e != 1 << v)
    for v in range(N_VERTICES)
)


def _x_move(codes, i: int):
    """E -> N(i) xor E: every stored edge e containing i other than the
    loop toggles e minus i, whose code bit sits 2**(i-1) places lower."""
    return codes ^ ((codes & _X_SOURCES[i - 1]) >> (1 << (i - 1)))


def loop_words(codes, i: int):
    """0xFFFF where the code stores the loop {i}, else 0: the global sign a
    loop on i puts on the sign word of an X move on i, as uint16 words."""
    _check_vertex(i)
    return ((codes & _LOOP[i - 1]) != 0) * np.uint16(0xFFFF)


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


def _permutation_move(codes, p):
    """Relabel every edge through p, one shift per group of code bits."""
    out = codes & 0
    for shift, mask in _permutation_shifts(tuple(p)):
        part = codes & mask
        out = out | (part << shift if shift >= 0 else part >> -shift)
    return out


def neighborhood(h: int, i: int) -> tuple[int, ...]:
    """Edges e \\ {i} for every stored edge containing vertex i.

    A loop on i would contribute the empty set, which is a global phase
    rather than an edge, so it is omitted.  Ordered like ``edges_of``.
    """
    return edges_of(apply_x(h, i) ^ h)


def has_loop(h: int, i: int) -> bool:
    """Whether the code stores the loop {i}."""
    _check_code(h)
    _check_vertex(i)
    return bool(h & _LOOP[i - 1])


def apply_x(h: int, i: int) -> int:
    """Pauli X on vertex i at code level: E -> N(i) xor E.  Involutive."""
    _check_code(h)
    _check_vertex(i)
    return _x_move(int(h), i)


def apply_z(h: int, i: int) -> int:
    """Pauli Z on vertex i at code level: toggle the loop {i}.  Involutive."""
    _check_code(h)
    _check_vertex(i)
    return int(h) ^ _LOOP[i - 1]


def permute(h: int, p) -> int:
    """Relabel every edge of a code through permutation p."""
    _check_code(h)
    return _permutation_move(int(h), p)


def x_image_table(i: int) -> np.ndarray:
    """apply_x(c, i) for every code c at once, as uint16: gather with ``np.take``."""
    _check_vertex(i)
    return _x_move(ALL_CODES, i)


def z_image_table(i: int) -> np.ndarray:
    """apply_z(c, i) for every code c at once, as uint16: gather with ``np.take``."""
    _check_vertex(i)
    return ALL_CODES ^ _LOOP[i - 1]


def permutation_image_table(p) -> np.ndarray:
    """permute(c, p) for every code c at once, as uint16: gather with ``np.take``."""
    return _permutation_move(ALL_CODES, p)


# ---------------------------------------------------------------------------
# rank and the standard form


def rank(h: int) -> int:
    """Largest edge cardinality in the code; 0 for the edgeless hypergraph."""
    _check_code(h)
    return max((_EDGE_SIZE[e] for e in range(1, N_BASIS) if h >> (e - 1) & 1), default=0)


def strip_loops(h: int) -> int:
    """Remove every loop via Z moves (stays in the local-equivalence orbit)."""
    _check_code(h)
    return h & ~LOOP_BITS


def standardize(h: int) -> int:
    """Loop-free orbit representative; for rank-4 codes also 3-edge-free.

    When the 4-vertex edge is present, each 3-edge is removed by an X move
    on its one absent vertex, in ascending vertex order.  That X toggles
    the 3-edge against the 4-edge and adds no other 3-edge, because every
    other edge through that vertex has at most 3 vertices; loops never
    change what an X move toggles, so one pass and one final clearing of
    loops with Z moves suffice.
    """
    _check_code(h)
    if h >> (FULL_EDGE - 1) & 1:
        for v in VERTICES:
            three_edge = FULL_EDGE ^ 1 << (v - 1)
            if h >> (three_edge - 1) & 1:
                h = apply_x(h, v)
    return strip_loops(h)


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
    return ",".join("".join(map(str, edge_vertices(e))) for e in edges_of(h))


def basis_string(mu: int) -> str:
    """Display form of a basis index: vertex 1 is the leftmost character."""
    if not 0 <= mu < N_BASIS:
        raise ValueError(f"basis index must be in 0..15, got {mu!r}")
    return "".join(str(mu >> v & 1) for v in range(N_VERTICES))


def basis_index(s: str) -> int:
    """Inverse of ``basis_string``."""
    if len(s) != N_VERTICES or set(s) - {"0", "1"}:
        raise ValueError(f"basis string must be 4 bits, got {s!r}")
    return sum(1 << v for v, ch in enumerate(s) if ch == "1")

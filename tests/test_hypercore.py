"""Unit tests for the bitmask hypergraph layer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgstate import hypercore as hc
from hgstate import orbits as ob
from hgstate import statevec as sv


# ---------------------------------------------------------------------------
# edge masks and vertex sets


def test_edge_mask_roundtrip():
    for e in range(1, hc.N_EDGE_KINDS + 1):
        assert hc.edge_mask(hc.edge_vertices(e)) == e


def test_edge_mask_examples():
    assert hc.edge_mask([1]) == 1
    assert hc.edge_mask([1, 2]) == 3
    assert hc.edge_mask([1, 2, 3, 4]) == 15
    assert hc.edge_vertices(9) == (1, 4)
    assert hc.edge_size(9) == 2


def test_scalar_validators_reject_non_integers():
    # truncating 3.7 to 3 would silently name another hypergraph
    with pytest.raises(TypeError):
        hc.apply_x(3.7, 1)
    with pytest.raises(TypeError):
        hc.permute(5.9, (2, 1, 3, 4))
    with pytest.raises(TypeError):
        sv.build_state(3.7)
    with pytest.raises(TypeError):
        hc.rank(3.7)
    with pytest.raises(TypeError):
        ob.orbit_of(3.7)
    with pytest.raises(TypeError):
        hc.apply_z(3, 2.0)
    with pytest.raises(TypeError):
        hc.edge_vertices(3.0)
    # numpy integers keep passing
    assert hc.apply_x(np.uint16(3), np.int64(1)) == hc.apply_x(3, 1)
    assert hc.edge_vertices(np.int32(9)) == (1, 4)


@pytest.mark.parametrize("bad", [[], [0], [5], [1, 1]])
def test_edge_mask_rejects(bad):
    with pytest.raises(ValueError):
        hc.edge_mask(bad)


def test_edges_of_ordering():
    h = hc.code_of_edges([15, 3, 7, 1])
    # larger edges first, lexicographic inside a size
    assert hc.edges_of(h) == (15, 7, 3, 1)


def test_code_of_edges_roundtrip_random():
    rng = np.random.default_rng(3)
    for h in rng.integers(0, hc.N_CODES, size=200):
        h = int(h)
        assert hc.code_of_edges(hc.edges_of(h)) == h


def test_code_of_edges_rejects_duplicates():
    with pytest.raises(ValueError):
        hc.code_of_edges([3, 3])


# ---------------------------------------------------------------------------
# sign function round trip


def test_signs_from_hypergraph_examples():
    # empty hypergraph: every sign positive
    assert hc.signs_from_hypergraph(0).tolist() == [0] * hc.N_BASIS
    # single four-edge: only the all-ones string flips
    g = hc.signs_from_hypergraph(hc.code_of_edges([15]))
    assert g.sum() == 1 and g[15] == 1


def test_sign_roundtrip_random():
    rng = np.random.default_rng(11)
    for h in rng.integers(0, hc.N_CODES, size=300):
        h = int(h)
        assert hc.hypergraph_from_signs(hc.signs_from_hypergraph(h)) == h


def test_hypergraph_from_signs_rejects_global_sign():
    g = np.zeros(hc.N_BASIS, dtype=np.uint8)
    g[0] = 1
    with pytest.raises(ValueError):
        hc.hypergraph_from_signs(g)


def test_sign_matrix_matches_scalar():
    codes = np.arange(0, hc.N_CODES, 37, dtype=np.uint16)
    m = hc.sign_matrix(codes)
    for k, h in enumerate(codes[:50]):
        assert np.array_equal(m[k], hc.signs_from_hypergraph(int(h)))


def test_sign_matrix_rejects_codes_outside_the_range():
    # a uint16 cast alone would read 32773 as code 5 and 70000 as 4464
    for bad in ([32773], np.array([5, 70000], dtype=np.int64), [-1], [3.0]):
        with pytest.raises(ValueError):
            hc.sign_matrix(bad)
    assert hc.sign_matrix(np.array([hc.N_CODES - 1], dtype=np.int64)).shape == (1, 16)


def _unpack(words):
    """Bit mu of each word, on a new boolean last axis."""
    return (np.asarray(words)[..., None] >> np.arange(hc.N_BASIS) & 1).astype(bool)


def test_all_codes_is_a_read_only_uint16_arange():
    assert hc.ALL_CODES.dtype == np.uint16 and not hc.ALL_CODES.flags.writeable
    assert np.array_equal(hc.ALL_CODES, np.arange(hc.N_CODES))


def test_sign_words_unpack_to_sign_matrix():
    words = hc.sign_words(hc.ALL_CODES)
    assert words.dtype == np.uint16 and words.shape == (hc.N_CODES,)
    assert np.array_equal(_unpack(words), hc.sign_matrix(hc.ALL_CODES))
    for h in range(0, hc.N_CODES, 97):
        assert np.array_equal(_unpack(words[h]), hc.signs_from_hypergraph(h))
        # g(mu) straight from the definition: parity of the edges inside supp(mu)
        inside = [sum(h >> (e - 1) & 1 for e in range(1, hc.N_BASIS) if e & ~mu == 0) % 2
                  for mu in range(hc.N_BASIS)]
        assert _unpack(words[h]).tolist() == [bool(b) for b in inside]


def test_stabilizer_defects_agree_for_any_integer_dtype_of_the_codes():
    codes = np.arange(0, hc.N_CODES, 5)
    for got, want in zip(sv.stabilizer_defects(codes.astype(np.uint16)),
                         sv.stabilizer_defects(codes)):
        assert np.array_equal(got, want)


def test_flip_basis_matches_the_dense_column_gather():
    g = hc.sign_matrix(hc.ALL_CODES)
    words = hc.sign_words(hc.ALL_CODES)
    mu = np.arange(hc.N_BASIS)
    for i in hc.VERTICES:
        assert np.array_equal(_unpack(hc.flip_basis(words, i)), g[:, mu ^ (1 << (i - 1))])


@settings(max_examples=60, deadline=None, database=None)
@given(words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=16),
       i=st.sampled_from(hc.VERTICES))
def test_flip_basis_is_an_involution(words, i):
    w = np.array(words, dtype=np.uint16)
    flipped = hc.flip_basis(w, i)
    assert flipped.dtype == np.uint16
    assert np.array_equal(hc.flip_basis(flipped, i), w)


# the word layer checks its inputs itself, not only through sign_matrix
@pytest.mark.parametrize("check", [hc.sign_words, sv.stabilizer_defects])
@pytest.mark.parametrize("codes, ok", [
    pytest.param([3.0], False, id="float"),
    pytest.param([-1], False, id="negative"),
    pytest.param([32773], False, id="above"),
    pytest.param(np.array([70000], dtype=np.int64), False, id="int64-70000"),
    pytest.param(np.int8(-1), False, id="int8-scalar-minus-1"),
    pytest.param(np.array([2**64 - 1], dtype=np.uint64), False, id="uint64-max"),
    pytest.param(np.array([hc.N_CODES], dtype=np.int64), False, id="int64-32768"),
    pytest.param(np.array([], dtype=np.int64), True, id="int64-empty"),
    pytest.param(np.array([hc.N_CODES - 1], dtype=np.uint16), True, id="uint16-32767"),
])
def test_word_layer_rejects_codes_outside_the_range(check, codes, ok):
    if ok:
        check(codes)
    else:
        with pytest.raises(ValueError, match=r"\[0, 32768\)"):
            check(codes)


# ---------------------------------------------------------------------------
# local moves


def test_apply_x_known_case():
    # X on vertex 3 of the single edge {1,2,3} toggles {1,2}
    h = hc.code_of_edges([7])
    assert hc.edges_of(hc.apply_x(h, 3)) == (7, 3)


def test_apply_x_is_involution():
    rng = np.random.default_rng(5)
    for h in rng.integers(0, hc.N_CODES, size=100):
        for i in hc.VERTICES:
            assert hc.apply_x(hc.apply_x(int(h), i), i) == int(h)


def test_apply_z_toggles_loop():
    h = 0
    h1 = hc.apply_z(h, 2)
    assert hc.edges_of(h1) == (2,)
    assert hc.apply_z(h1, 2) == 0


def test_permute_identity_and_composition():
    rng = np.random.default_rng(7)
    perms = list(itertools.permutations(hc.VERTICES))
    for h in rng.integers(0, hc.N_CODES, size=40):
        h = int(h)
        assert hc.permute(h, (1, 2, 3, 4)) == h
        p = perms[rng.integers(len(perms))]
        q = perms[rng.integers(len(perms))]
        pq = tuple(q[p[i - 1] - 1] for i in hc.VERTICES)
        assert hc.permute(hc.permute(h, p), q) == hc.permute(h, pq)


def test_neighborhood():
    h = hc.code_of_edges([7, 9])  # {1,2,3} and {1,4}
    assert hc.neighborhood(h, 1) == (hc.edge_mask([2, 3]), hc.edge_mask([4]))
    assert hc.has_loop(hc.apply_z(h, 1), 1)
    assert not hc.has_loop(h, 1)


# ---------------------------------------------------------------------------
# rank, loops, standard form


def test_rank():
    assert hc.rank(0) == 0
    assert hc.rank(hc.code_of_edges([1])) == 1
    assert hc.rank(hc.code_of_edges([3, 15])) == 4


def test_strip_loops():
    h = hc.code_of_edges([1, 2, 7])
    assert hc.edges_of(hc.strip_loops(h)) == (7,)


def test_standardize_worked_example():
    # the four-edge absorbs the three-edge via X on the missing vertex
    h = hc.parse_edges("1234,123")
    assert hc.format_edges(hc.standardize(h)) == "1234"


def test_standardize_properties_sampled():
    rng = np.random.default_rng(13)
    for h in rng.integers(0, hc.N_CODES, size=400):
        s = hc.standardize(int(h))
        edges = hc.edges_of(s)
        sizes = {hc.edge_size(e) for e in edges}
        assert 1 not in sizes  # loop free
        if 15 in edges:
            assert 3 not in sizes  # no three-edges next to the four-edge
        assert hc.standardize(s) == s  # idempotent


# ---------------------------------------------------------------------------
# vectorized image tables


def test_moves_and_signs_match_edge_level_definitions():
    # the shift-and-xor formulas against a direct reading of the edge set
    for h in np.random.default_rng(23).integers(0, hc.N_CODES, size=100):
        h = int(h)
        edges = set(hc.edges_of(h))
        for i in hc.VERTICES:
            bit = 1 << (i - 1)
            nbr = {e ^ bit for e in edges if e & bit and e != bit}
            assert set(hc.edges_of(hc.apply_x(h, i))) == edges ^ nbr
            assert set(hc.edges_of(hc.apply_z(h, i))) == edges ^ {bit}
        for p in hc.ALL_PERMUTATIONS:
            image = {sum(1 << (p[k] - 1) for k in range(4) if e >> k & 1) for e in edges}
            assert set(hc.edges_of(hc.permute(h, p))) == image
        parity = [sum((mu & e) == e for e in edges) % 2 == 1 for mu in range(hc.N_BASIS)]
        assert hc.signs_from_hypergraph(h).tolist() == parity


@pytest.mark.parametrize("p", [(1, 1, 2, 3), (1, 2, 3), (1, 2, 3, 5)])
def test_permutation_moves_reject_non_permutations(p):
    with pytest.raises(ValueError):
        hc.permute(5, p)
    with pytest.raises(ValueError):
        hc.permutation_image_table(p)


def test_image_tables_match_scalar_moves():
    codes = np.arange(hc.N_CODES, dtype=np.uint16)
    sample = np.random.default_rng(17).integers(0, hc.N_CODES, size=64)
    for i in hc.VERTICES:
        tx = hc.x_image_table(i)
        tz = hc.z_image_table(i)
        assert tx.shape == (hc.N_CODES,)
        for h in sample:
            assert int(tx[h]) == hc.apply_x(int(h), i)
            assert int(tz[h]) == hc.apply_z(int(h), i)
    p = (2, 4, 1, 3)
    tp = hc.permutation_image_table(p)
    for h in sample:
        assert int(tp[h]) == hc.permute(int(h), p)
    assert np.array_equal(hc.permutation_image_table((1, 2, 3, 4)), codes)


# ---------------------------------------------------------------------------
# text formats


@pytest.mark.parametrize(
    "text,edges",
    [
        ("", ()),
        ("1234", (15,)),
        ("12,34", (3, 12)),
        ("1234,14,23", (15, 9, 6)),
    ],
)
def test_parse_edges(text, edges):
    assert hc.edges_of(hc.parse_edges(text)) == edges


def test_parse_format_roundtrip_random():
    rng = np.random.default_rng(19)
    for h in rng.integers(0, hc.N_CODES, size=150):
        h = int(h)
        assert hc.parse_edges(hc.format_edges(h)) == h


# malformed edge lists and the token each rejection must name; int() reads
# the Arabic-Indic and fullwidth digits, so only the character check stops them
_BAD_EDGE_LISTS = {
    "125": "125",
    "1234,,12": "''",
    "112": "112",
    "12,12": "12",
    "1 2": "1 2",
    "15": "15",
    "1,,2": "''",
    "\u0661\u0662": "\u0661\u0662",
    "\uff11": "\uff11",
}


@pytest.mark.parametrize("bad", list(_BAD_EDGE_LISTS))
def test_parse_edges_rejects(bad):
    with pytest.raises(ValueError) as exc:
        hc.parse_edges(bad)
    assert _BAD_EDGE_LISTS[bad] in str(exc.value)


def test_basis_string_roundtrip():
    for mu in range(hc.N_BASIS):
        s = hc.basis_string(mu)
        assert len(s) == 4
        assert hc.basis_index(s) == mu
    # vertex 1 is the leftmost character
    assert hc.basis_string(1) == "1000"
    assert hc.basis_string(8) == "0001"

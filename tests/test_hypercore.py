"""Unit tests for the bitmask hypergraph layer."""

import itertools
import math

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
        hc.act(3.7, x_mask=1)
    with pytest.raises(TypeError):
        hc.act(5.9, (2, 1, 3, 4))
    with pytest.raises(TypeError):
        sv.build_state(3.7)
    with pytest.raises(TypeError):
        hc.rank(3.7)
    with pytest.raises(TypeError):
        ob.orbit_of(3.7)
    with pytest.raises(TypeError):
        hc.act(3, z_mask=2.0)
    with pytest.raises(TypeError):
        hc.edge_vertices(3.0)
    with pytest.raises(TypeError):  # not "unsupported operand" from inside the shift
        hc.basis_string(3.0)
    # numpy integers keep passing, and a single code comes back as an int
    moved = hc.act(np.uint16(3), x_mask=np.int64(1))
    assert type(moved) is int and moved == hc.act(3, x_mask=1)
    assert hc.edge_vertices(np.int32(9)) == (1, 4)


@pytest.mark.parametrize("bad", [[], [0], [5], [1, 1]])
def test_edge_mask_rejects(bad):
    with pytest.raises(ValueError):
        hc.edge_mask(bad)


def test_edges_of_ordering():
    h = hc.code_of_edges([15, 3, 7, 1])
    # larger edges first, lexicographic inside a size
    assert hc.edges_of(h) == (15, 7, 3, 1)
    every = hc.edges_of(hc.N_CODES - 1)
    assert every == tuple(sorted(range(1, hc.N_BASIS),
                                 key=lambda e: (-hc.edge_size(e), hc.edge_vertices(e))))
    assert hc.format_edges(hc.N_CODES - 1) == ",".join(
        "".join(map(str, hc.edge_vertices(e))) for e in every)


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


@pytest.mark.parametrize("entry", [0.5, 2, -1, math.nan])
def test_hypergraph_from_signs_rejects_entries_other_than_0_and_1(entry):
    # a truthiness cast would read each of these as 1, the sign function of code 21845
    g = [0] * hc.N_BASIS
    g[1] = entry
    with pytest.raises(ValueError, match=f"entry 1 is {entry!r}, not 0 or 1"):
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


def test_stabilizer_defects_keep_the_shape_of_a_scalar_code():
    unfixed, noncommuting = sv.stabilizer_defects(np.uint16(77))
    assert unfixed.shape == (4,) and noncommuting.shape == (6,)
    assert not (unfixed.any() or noncommuting.any())


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


def test_codes_of_words_inverts_sign_words():
    codes = hc.codes_of_words(hc.sign_words(hc.ALL_CODES))
    assert codes.dtype == np.uint16 and np.array_equal(codes, hc.ALL_CODES)
    assert hc.codes_of_words(hc.sign_words(hc.parse_edges("1234,12"))) == hc.parse_edges("1234,12")


@pytest.mark.parametrize("words, match", [
    pytest.param([1], r"g\(0000\) = 1", id="bit-0-set"),
    pytest.param(np.array([0, 0xFFFF], dtype=np.uint16), r"g\(0000\) = 1", id="uint16-max"),
    pytest.param([1 << 16], r"\[0, 65536\)", id="above"),
    pytest.param([-2], r"\[0, 65536\)", id="negative"),
    pytest.param([2.0], r"\[0, 65536\)", id="float"),
])
def test_codes_of_words_rejects_words_no_code_has(words, match):
    with pytest.raises(ValueError, match=match):
        hc.codes_of_words(words)


def _loop_words(codes):
    return hc.loop_words(codes, 1)


def _neighborhood(h):
    return hc.neighborhood(h, 1)


# every entry point checks its codes itself, under one rule.  The word layer
# takes a single code or an array; the rest take one code, so an array is a
# TypeError there, as is a float.  basis_string names its own range, [0, 16)
_ONE_CODE = (hc.standardize, hc.rank, hc.edges_of, hc.format_edges,
             hc.signs_from_hypergraph, _neighborhood, hc.basis_string)


@pytest.mark.parametrize("check", (hc.sign_words, sv.stabilizer_defects, hc.act, hc.strip_loops,
                                   _loop_words) + _ONE_CODE,
                         ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("codes, error", [
    pytest.param([3.0], ValueError, id="float"),
    pytest.param([-1], ValueError, id="negative"),
    pytest.param([32773], ValueError, id="above"),
    pytest.param(np.array([70000], dtype=np.int64), ValueError, id="int64-70000"),
    pytest.param(np.int8(-1), ValueError, id="int8-scalar-minus-1"),
    pytest.param(np.array([2**64 - 1], dtype=np.uint64), ValueError, id="uint64-max"),
    pytest.param(np.array([hc.N_CODES], dtype=np.int64), ValueError, id="int64-32768"),
    pytest.param(np.array([], dtype=np.int64), None, id="int64-empty"),
    pytest.param(np.array([hc.N_CODES - 1], dtype=np.uint16), None, id="uint16-32767"),
    pytest.param(3.0, TypeError, id="float-scalar"),
    pytest.param(np.float64(3.0), TypeError, id="float64-scalar"),
    pytest.param(-1, ValueError, id="int-minus-1"),
    pytest.param(hc.N_CODES, ValueError, id="int-32768"),
    pytest.param(np.int64(2**40), ValueError, id="int64-scalar-2-to-40"),
    pytest.param(np.array(15, dtype=np.uint8), None, id="uint8-0d-15"),
    pytest.param(np.uint16(15), None, id="uint16-scalar-15"),
])
def test_word_layer_rejects_codes_outside_the_range(check, codes, error):
    if check in _ONE_CODE and np.ndim(codes):
        error = TypeError
    if error is None:
        check(codes)
    else:
        stop = hc.N_BASIS if check is hc.basis_string else hc.N_CODES
        with pytest.raises(error, match=rf"\[0, {stop}\)" if error is ValueError else None):
            check(codes)


def test_one_code_is_checked_once_per_argument(monkeypatch):
    checked = []

    def counting(values, lo, stop, what, arrays=False):
        checked.append(what)
        return check(values, lo, stop, what, arrays)

    check = hc._check
    monkeypatch.setattr(hc, "_check", counting)
    h = hc.parse_edges("1234,123,12,1")
    for call, whats in [
        (lambda: hc.standardize(h), ["hypergraph code"]),
        (lambda: hc.act(h, x_mask=3), ["hypergraph code", "X mask", "Z mask"]),
        (lambda: hc.act(h, (2, 1, 3, 4), 1, 2), ["hypergraph code", "X mask", "Z mask"]),
        (lambda: hc.strip_loops(h), ["hypergraph code"]),
        (lambda: hc.signs_from_hypergraph(h), ["hypergraph code"]),
        (lambda: hc.format_edges(h), ["hypergraph code"]),
        (lambda: hc.neighborhood(h, 2), ["hypergraph code", "vertex"]),
    ]:
        checked.clear()
        call()
        assert checked == whats


# ---------------------------------------------------------------------------
# local moves


def test_apply_x_known_case():
    # X on vertex 3 of the single edge {1,2,3} toggles {1,2}
    h = hc.code_of_edges([7])
    assert hc.edges_of(hc.act(h, x_mask=0b100)) == (7, 3)


def test_apply_x_is_involution():
    for v in range(hc.N_VERTICES):
        moved = hc.act(hc.ALL_CODES, x_mask=1 << v)
        assert np.array_equal(hc.act(moved, x_mask=1 << v), hc.ALL_CODES)


def test_apply_z_toggles_loop():
    h1 = hc.act(0, z_mask=0b10)
    assert hc.edges_of(h1) == (2,)
    assert hc.act(h1, z_mask=0b10) == 0


def test_permute_identity_and_composition():
    rng = np.random.default_rng(7)
    perms = list(itertools.permutations(hc.VERTICES))
    for h in rng.integers(0, hc.N_CODES, size=40):
        h = int(h)
        assert hc.act(h, (1, 2, 3, 4)) == h
        p = perms[rng.integers(len(perms))]
        q = perms[rng.integers(len(perms))]
        pq = tuple(q[p[i - 1] - 1] for i in hc.VERTICES)
        assert hc.act(hc.act(h, p), q) == hc.act(h, pq)


def test_neighborhood():
    h = hc.code_of_edges([7, 9])  # {1,2,3} and {1,4}
    assert hc.neighborhood(h, 1) == (hc.edge_mask([2, 3]), hc.edge_mask([4]))
    # a loop on the vertex is a global phase, not a neighbor
    assert hc.neighborhood(hc.act(h, z_mask=1), 1) == hc.neighborhood(h, 1)


@pytest.mark.parametrize("codes", [[40000], np.array([40000, 70000]), [-1], [3.0], 2.0])
def test_loop_words_reject_codes_outside_the_range(codes):
    # an array of floats is out of the range; a single float is not an integer
    with pytest.raises(TypeError if isinstance(codes, float) else ValueError,
                       match=None if isinstance(codes, float) else r"\[0, 32768\)"):
        hc.loop_words(codes, 1)


def test_loop_words_read_the_loop_on_each_vertex():
    h = hc.parse_edges("1234,12")
    for i in hc.VERTICES:
        looped = hc.act(h, z_mask=1 << (i - 1))
        assert hc.loop_words(np.array([looped, h]), i).tolist() == [0xFFFF, 0]
        assert hc.loop_words(looped, i) == 0xFFFF and hc.loop_words(h, i) == 0


# ---------------------------------------------------------------------------
# rank, loops, standard form


def test_rank():
    assert hc.rank(0) == 0
    assert hc.rank(hc.code_of_edges([1])) == 1
    assert hc.rank(hc.code_of_edges([3, 15])) == 4


def test_strip_loops():
    h = hc.code_of_edges([1, 2, 7])
    assert hc.edges_of(hc.strip_loops(h)) == (7,)
    stripped = hc.strip_loops(np.array([h, 5, 7], dtype=np.uint16))
    assert stripped.dtype == np.uint16 and stripped.tolist() == [hc.code_of_edges([7]), 4, 4]


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


def _relabel(p, mask):
    """p(m): the vertex mask m relabeled through the permutation p."""
    return sum(1 << (p[v] - 1) for v in range(hc.N_VERTICES) if mask >> v & 1)


def test_moves_and_signs_match_edge_level_definitions():
    # act, on an array and on each code alone, against a direct reading
    # of the edge set: no shift-and-xor formula is shared
    codes = np.random.default_rng(23).integers(0, hc.N_CODES, size=100)
    moves = [{"x_mask": 1 << (i - 1)} for i in hc.VERTICES]
    moves += [{"z_mask": 1 << (i - 1)} for i in hc.VERTICES]
    moves += [{"p": p} for p in hc.ALL_PERMUTATIONS]
    moves.append({"p": (3, 1, 4, 2), "x_mask": 0b0110, "z_mask": 0b1001})
    images = [hc.act(codes, **move) for move in moves]
    for k, h in enumerate(codes.tolist()):
        edges = set(hc.edges_of(h))
        for move, image in zip(moves, images, strict=True):
            p = move.get("p", hc.VERTICES)
            want = {_relabel(p, e) for e in edges}
            for i in hc.VERTICES:
                bit = 1 << (i - 1)
                if move.get("x_mask", 0) & bit:
                    want ^= {e ^ bit for e in want if e & bit and e != bit}
            want ^= {1 << v for v in range(hc.N_VERTICES) if move.get("z_mask", 0) >> v & 1}
            assert set(hc.edges_of(int(image[k]))) == want
            assert hc.act(h, **move) == image[k]
        parity = [sum((mu & e) == e for e in edges) % 2 == 1 for mu in range(hc.N_BASIS)]
        assert hc.signs_from_hypergraph(h).tolist() == parity


_ELEMENTS = st.tuples(st.sampled_from(hc.ALL_PERMUTATIONS), st.integers(0, 15), st.integers(0, 15))


@settings(max_examples=80, deadline=None, database=None)
@given(codes=st.lists(st.integers(0, hc.N_CODES - 1), max_size=12),
       first=_ELEMENTS, second=_ELEMENTS, dtype=st.sampled_from([np.uint16, np.int64]))
def test_act_composes_by_the_group_law(codes, first, second, dtype):
    # (p2, x2, z2)(p1, x1, z1) = (p2 p1, x2 ^ p2(x1), z2 ^ p2(z1)): the
    # product of two elements is one element, as the closure certificate's
    # count of 6144 / |Stab| needs
    (p1, x1, z1), (p2, x2, z2) = first, second
    p21 = tuple(p2[p1[v] - 1] for v in range(hc.N_VERTICES))  # p1 first
    x21, z21 = x2 ^ _relabel(p2, x1), z2 ^ _relabel(p2, z1)
    array = np.array(codes, dtype=dtype)
    got = hc.act(hc.act(array, p1, x1, z1), p2, x2, z2)
    assert got.dtype == dtype
    assert np.array_equal(got, hc.act(array, p21, x21, z21))
    for h in codes[:3]:
        assert hc.act(hc.act(h, p1, x1, z1), p2, x2, z2) == hc.act(h, p21, x21, z21)


@settings(max_examples=80, deadline=None, database=None)
@given(codes=st.lists(st.integers(0, hc.N_CODES - 1), max_size=12),
       p=st.sampled_from(hc.ALL_PERMUTATIONS), x_mask=st.integers(0, 15),
       order=st.permutations(hc.VERTICES), dtype=st.sampled_from([np.uint16, np.int64]))
def test_act_is_permute_then_the_x_moves_in_any_order(codes, p, x_mask, order, dtype):
    got = hc.act(np.array(codes, dtype=dtype), p, x_mask)
    assert got.dtype == dtype
    for h, image in zip(codes, got, strict=True):
        want = hc.act(h, p)
        for i in order:  # X moves commute at code level
            if x_mask >> (i - 1) & 1:
                want = hc.act(want, x_mask=1 << (i - 1))
        assert int(image) == want


@pytest.mark.parametrize("x_mask", [-1, 16, 2.0])
def test_act_rejects_x_masks_outside_0_to_15(x_mask):
    with pytest.raises((ValueError, TypeError)):
        hc.act([5], hc.VERTICES, x_mask)
    with pytest.raises((ValueError, TypeError)):  # and Z masks alike
        hc.act([5], hc.VERTICES, 0, x_mask)


@pytest.mark.parametrize("p", [(1, 1, 2, 3), (1, 2, 3), (1, 2, 3, 5)])
def test_permutation_moves_reject_non_permutations(p):
    with pytest.raises(ValueError):
        hc.act(5, p)
    with pytest.raises(ValueError):
        hc.permutation_image_table(p)


def test_image_tables_match_scalar_moves():
    # the tables are act on the whole code space; single codes take act's int path
    sample = np.random.default_rng(17).integers(0, hc.N_CODES, size=64)
    for i in hc.VERTICES:
        tx = hc.x_image_table(i)
        tz = hc.z_image_table(i)
        assert tx.shape == tz.shape == (hc.N_CODES,) and tx.dtype == tz.dtype == np.uint16
        for h in sample:
            assert int(tx[h]) == hc.act(int(h), x_mask=1 << (i - 1))
            assert int(tz[h]) == hc.act(int(h), z_mask=1 << (i - 1))
    p = (2, 4, 1, 3)
    tp = hc.permutation_image_table(p)
    for h in sample:
        assert int(tp[h]) == hc.act(int(h), p)
    assert np.array_equal(hc.permutation_image_table((1, 2, 3, 4)), hc.ALL_CODES)


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
    # the inverse reads character v as bit v, vertex v + 1
    for mu in range(hc.N_BASIS):
        s = hc.basis_string(mu)
        assert len(s) == 4 and set(s) <= {"0", "1"}
        assert sum(1 << v for v, ch in enumerate(s) if ch == "1") == mu
    # vertex 1 is the leftmost character
    assert hc.basis_string(1) == "1000"
    assert hc.basis_string(8) == "0001"

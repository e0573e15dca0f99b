"""Unit tests for orbit enumeration, orbit records and the rank census."""

import dataclasses

import numpy as np
import pytest

from hgstate import hypercore as hc
from hgstate import orbits as ob


def test_partition_shape(orbit_table):
    t = orbit_table
    assert t.n_orbits == 39
    assert t.class_id.shape == (hc.N_CODES,)
    assert int(t.sizes.sum()) == hc.N_CODES
    assert all(ob.GROUP_ORDER % int(s) == 0 for s in t.sizes)


def test_orbit_table_dtypes(orbit_table):
    t = orbit_table
    assert t.class_id.dtype == t.reps.dtype == np.uint16
    assert t.sizes.dtype == t.rep_rank.dtype == np.int64


def test_rank_census(orbit_table):
    assert ob.rank_census(orbit_table) == {0: 16, 2: 1008, 3: 15360, 4: 16384}


def test_rank_census_rejects_an_orbit_of_mixed_rank(orbit_table):
    rep_rank = orbit_table.rep_rank.copy()
    rep_rank[5] = 4  # a rank-2 graph orbit claimed as rank 4
    damaged = dataclasses.replace(orbit_table, rep_rank=rep_rank)
    with pytest.raises(RuntimeError, match="orbit 5"):
        ob.rank_census(damaged)


def test_reps_are_orbit_minima(orbit_table):
    t = orbit_table
    codes = np.arange(hc.N_CODES, dtype=np.uint16)
    mins = np.full(t.n_orbits, hc.N_CODES, dtype=np.int64)
    np.minimum.at(mins, t.class_id, codes)
    assert np.array_equal(mins, t.reps)


def test_closure_under_generators(orbit_table):
    cid = orbit_table.class_id
    for table in ob.generator_tables():
        assert np.array_equal(cid[table], cid)


def test_generator_count():
    assert len(ob.generator_tables()) == 11  # 4 X + 4 Z + 3 transpositions


def _full_generator_tables():
    """The 4 X, 4 Z and all 24 permutation tables: the whole group's moves."""
    tables = [hc.x_image_table(i) for i in hc.VERTICES]
    tables += [hc.z_image_table(i) for i in hc.VERTICES]
    return tables + [hc.permutation_image_table(p) for p in hc.ALL_PERMUTATIONS]


def test_closure_under_all_32_moves(orbit_table):
    cid = orbit_table.class_id
    for table in _full_generator_tables():
        assert np.array_equal(cid[table], cid)


_LOOPS = tuple(hc.parse_edges(str(i)) for i in hc.VERTICES)


def test_x_moves_and_transpositions_commute_with_every_loop_toggle():
    # the premise of enumerating on the loop-free codes: these moves carry
    # each Z coset onto a whole Z coset
    codes = np.arange(hc.N_CODES)
    moves = [hc.x_image_table(i) for i in hc.VERTICES]
    moves += [hc.permutation_image_table(p) for p in ob.TRANSPOSITIONS]
    for move in moves:
        for loop in _LOOPS:
            image = int(move[loop])
            assert image in _LOOPS
            assert np.array_equal(move[codes ^ loop], move ^ image)


def test_class_id_is_constant_on_every_z_coset(orbit_table):
    cid = orbit_table.class_id
    assert np.array_equal(cid, cid[np.arange(hc.N_CODES) & ~sum(_LOOPS)])


def test_transpositions_generate_every_permutation():
    def compose(p, q):  # q first, then p
        return tuple(p[v - 1] for v in q)

    reached = {tuple(hc.VERTICES)}
    frontier = list(reached)
    while frontier:
        new = {compose(t, p) for p in frontier for t in ob.TRANSPOSITIONS} - reached
        reached |= new
        frontier = list(new)
    assert reached == set(hc.ALL_PERMUTATIONS)
    assert all(np.array_equal(t, hc.permutation_image_table(p))
               for t, p in zip(ob.generator_tables()[8:], ob.TRANSPOSITIONS, strict=True))


def test_class_id_matches_propagation_over_all_32_moves(orbit_table):
    # reference: Jacobi min-label propagation over the whole group's moves,
    # then ids by ascending orbit minimum
    labels = np.arange(hc.N_CODES)
    tables = _full_generator_tables()
    while True:
        nxt = np.minimum.reduce([labels] + [labels[t] for t in tables])
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    reps, class_id = np.unique(labels, return_inverse=True)
    assert np.array_equal(orbit_table.reps, reps)
    assert np.array_equal(orbit_table.class_id, class_id)


def test_orbit_of_known_cases(orbit_table):
    empty = ob.orbit_of(0, orbit_table)
    assert (empty.rep, empty.size, empty.rank) == (0, 16, 0)

    a = ob.orbit_of(hc.parse_edges("1234"), orbit_table)
    b = ob.orbit_of(hc.parse_edges("1234,123"), orbit_table)
    assert a.rep == b.rep
    assert a.size == 256 and a.rank == 4 and a.m == 1


def test_m_values(orbit_table):
    t = orbit_table
    m_total_graphs = 0
    for k in range(t.n_orbits):
        rec = ob.orbit_of(int(t.reps[k]), t)
        if rec.rank == 4:
            assert rec.size == 256 * rec.m
        elif rec.rank == 3:
            assert rec.size == 128 * rec.m
        else:
            assert rec.size == 16 * rec.m
            m_total_graphs += rec.m
    assert m_total_graphs == 64


def test_standardized_rank_table(orbit_table):
    table = ob.standardized_rank_table()
    sample = np.random.default_rng(71).integers(0, hc.N_CODES, size=300)
    for h in sample:
        assert int(table[h]) == hc.rank(hc.standardize(int(h)))


def test_orbit_table_is_read_only(orbit_table):
    # the table is memoised for the whole process; a write would corrupt
    # every later orbit_of and rank_census
    for name in ("class_id", "reps", "sizes", "rep_rank"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(orbit_table, name)[0] = 1
    assert ob.enumerate_orbits() is orbit_table

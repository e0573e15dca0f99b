"""Unit tests for statevector construction, stabilizers, and entropies."""

import math

import numpy as np
import pytest

from hgstate import hypercore as hc
from hgstate import statevec as sv


def test_build_state_plus_states():
    s = sv.build_state(0)
    assert np.allclose(s, 0.25)
    assert np.isclose(np.linalg.norm(s), 1.0)


def test_build_state_four_edge():
    s = sv.build_state(hc.parse_edges("1234"))
    expected = np.full(16, 0.25)
    expected[15] = -0.25
    assert np.array_equal(s, expected)


def _cz_diagonal(e):
    """Reference diagonal of the multi-controlled-Z over one edge mask: -1
    on the basis states where every vertex of the edge reads 1."""
    mu = np.arange(16)
    return np.where((mu & e) == e, -1.0, 1.0)


def test_build_state_matches_cz_circuit():
    rng = np.random.default_rng(23)
    plus = np.full(16, 0.25)
    for h in rng.integers(0, hc.N_CODES, size=60):
        h = int(h)
        diag = np.ones(16)
        for e in hc.edges_of(h):
            diag = diag * _cz_diagonal(e)
        assert np.array_equal(sv.build_state(h), diag * plus)


def _dense_stabilizer(h, i):
    """Reference K_i: X_i times the controlled-Z product over N(i), with the
    global -1 of a loop on i, built as a dense 16x16 matrix."""
    diag = np.full(16, -1.0 if 1 << (i - 1) in hc.edges_of(h) else 1.0)
    for e in hc.neighborhood(h, i):
        diag = diag * _cz_diagonal(e)
    k = np.zeros((16, 16))
    k[np.arange(16) ^ (1 << (i - 1)), np.arange(16)] = diag
    return k


def test_dense_stabilizer_reference_squares_to_identity():
    rng = np.random.default_rng(29)
    for h in rng.integers(0, hc.N_CODES, size=20):
        for i in hc.VERTICES:
            k = _dense_stabilizer(int(h), i)
            assert np.allclose(k @ k, np.eye(16))


def test_verify_stabilizers_sampled():
    rng = np.random.default_rng(31)
    for h in rng.integers(0, hc.N_CODES, size=60):
        assert sv.verify_stabilizers(int(h))


def test_stabilizer_defects_match_dense_reference():
    # loop-carrying codes included, so the loop's global sign is exercised
    codes = np.random.default_rng(37).integers(0, hc.N_CODES, size=120)
    unfixed, noncommuting = sv.stabilizer_defects(codes)
    assert unfixed.shape == (4, 120) and noncommuting.shape == (6, 120)
    for col, h in enumerate(codes):
        psi = sv.build_state(int(h))
        ks = {i: _dense_stabilizer(int(h), i) for i in hc.VERTICES}
        for row, i in enumerate(hc.VERTICES):
            assert unfixed[row, col] == (not np.array_equal(ks[i] @ psi, psi))
        for row, (i, j) in enumerate(sv.PAIRS):
            commute = np.array_equal(ks[i] @ ks[j], ks[j] @ ks[i])
            assert noncommuting[row, col] == (not commute)


def _assert_int_path_matches_the_whole_space():
    """The 0-d verdict rows of each loop-free code, an int, equal its column
    of the whole-space evaluation."""
    unfixed, noncommuting = sv.stabilizer_defects(hc.ALL_CODES)
    for h in np.flatnonzero(hc.strip_loops(hc.ALL_CODES) == hc.ALL_CODES).tolist():
        u, c = sv.stabilizer_defects(h)
        assert u.shape == (4,) and c.shape == (6,), h
        assert np.array_equal(u, unfixed[:, h]) and np.array_equal(c, noncommuting[:, h]), h


def test_stabilizer_defects_of_an_int_are_its_whole_space_column(monkeypatch):
    # verify_stabilizers(h) takes the int path; it agrees with the array
    # path on all 2048 loop-free codes, and still does under a planted
    # fault, a basis flip on vertex 3 that sets one bit too many, which
    # fails K_3 and the three pairs with vertex 3 for every code
    _assert_int_path_matches_the_whole_space()
    assert sv.verify_stabilizers(13652)
    flip = hc.flip_basis
    monkeypatch.setattr(hc, "flip_basis", lambda words, i: flip(words, i) ^ (i == 3))
    _assert_int_path_matches_the_whole_space()
    unfixed, noncommuting = sv.stabilizer_defects(13652)
    assert unfixed.tolist() == [False, False, True, False]
    assert noncommuting.tolist() == [3 in pair for pair in sv.PAIRS]
    assert not sv.verify_stabilizers(13652)


def test_stabilizer_defects_reject_out_of_range_codes():
    with pytest.raises(ValueError):
        sv.stabilizer_defects([5, hc.N_CODES])
    with pytest.raises(ValueError):
        sv.verify_stabilizers(-1)


def test_state_tensor_index_convention():
    s = sv.build_state(hc.parse_edges("1234,123"))
    t = sv.state_tensor(s)
    assert t.shape == (2, 2, 2, 2)
    for mu in range(16):
        bits = [(mu >> v) & 1 for v in range(4)]
        assert t[bits[0], bits[1], bits[2], bits[3]] == s[mu]


def _reduced_density_qubit_4_first(s, keep):
    """Reference partial trace on the plain C-order reshape, where qubit 4
    is the first axis, with the kept axes moved first."""
    axes = [4 - v for v in keep]
    rest = [ax for ax in range(4) if ax not in axes]
    m = s.reshape((2,) * 4).transpose(axes + rest).reshape(1 << len(keep), -1)
    return m @ m.T


def test_reduced_density_matches_the_qubit_4_first_formula_exactly(orbit_table):
    # every amplitude is +-1/4, so each entry is an exact sum of +-1/16 terms
    for rep in orbit_table.reps:
        s = sv.build_state(int(rep))
        for keep in sv.ONE_CUTS + sv.TWO_CUTS:
            expected = _reduced_density_qubit_4_first(s, keep)
            assert np.array_equal(sv.reduced_density(s, keep), expected), (rep, keep)


def test_complex_input_is_rejected():
    # a cast to float would drop the imaginary part: entropy -0.0, not 1
    psi = 1j * sv.build_state(7)
    with pytest.raises(ValueError, match="real"):
        sv.reduced_density(psi, [1])
    with pytest.raises(ValueError, match="real"):
        sv.state_tensor(psi)
    with pytest.raises(ValueError, match="real"):
        sv.entropy(np.diag([0.75, 0.25]) + 0j)
    assert np.isclose(sv.entropy(sv.reduced_density(-psi.imag, [1])), 1.0)


def test_reduced_density_basic_properties():
    rng = np.random.default_rng(41)
    for h in rng.integers(0, hc.N_CODES, size=25):
        s = sv.build_state(int(h))
        for keep in ([1], [3], [1, 2], [2, 4]):
            rho = sv.reduced_density(s, keep)
            n = 2 ** len(keep)
            assert rho.shape == (n, n)
            assert np.isclose(np.trace(rho), 1.0)
            assert np.allclose(rho, rho.T.conj())
            assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_reduced_density_rejects_bad_keep():
    s = sv.build_state(0)
    with pytest.raises(ValueError):
        sv.reduced_density(s, [1, 2, 3])
    with pytest.raises(ValueError):
        sv.reduced_density(s, [])


def test_entropy_values():
    assert sv.entropy(np.diag([1.0, 0.0])) == 0.0
    assert np.isclose(sv.entropy(np.diag([0.5, 0.5])), 1.0)
    assert np.isclose(sv.entropy(np.diag([0.75, 0.25])), 0.8113, atol=5e-5)


def test_pure_cuts_have_a_positive_zero_entropy():
    # -(1 * log2 1) is -0.0, which reports would print as -0.0000
    assert math.copysign(1.0, sv.entropy(np.diag([1.0, 0.0]))) == 1.0
    p = sv.entropy_profile(hc.parse_edges("12"))
    assert p.be1[2:] == (0.0, 0.0)
    assert all(math.copysign(1.0, v) == 1.0 for v in p.be1 + p.be2)


def test_entropy_complement_symmetry():
    rng = np.random.default_rng(43)
    cuts = ([1, 2], [3, 4]), ([1, 3], [2, 4]), ([1, 4], [2, 3])
    for h in rng.integers(0, hc.N_CODES, size=25):
        s = sv.build_state(int(h))
        for keep, rest in cuts:
            a = sv.entropy(sv.reduced_density(s, keep))
            b = sv.entropy(sv.reduced_density(s, rest))
            assert np.isclose(a, b, atol=1e-10)


def test_entropy_profile_shapes_and_product_state():
    p = sv.entropy_profile(0)
    assert len(p.be1) == 4 and len(p.be2) == 3
    assert max(p.be1) < 1e-12 and max(p.be2) < 1e-12


def test_entropy_profile_four_edge():
    p = sv.entropy_profile(hc.parse_edges("1234"))
    assert np.allclose(p.be1, [0.5436] * 4, atol=5e-5)
    assert np.allclose(p.be2, [0.6561] * 3, atol=5e-5)


def _entropy_dropping_small_eigenvalues(rho):
    """Reference entropy that drops the eigenvalues of at most 1e-15 before
    summing, where :func:`sv.entropy` adds an exact zero for each."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


def test_stacked_entropy_profile_matches_each_cut_alone(orbit_table):
    # the seven entropies of a code come from two stacked eigvalsh calls; each
    # has the bits of its own cut's entropy(reduced_density(s, cut)), and of
    # the reference that drops small eigenvalues, on every rep and every 16th code
    codes = sorted({int(rep) for rep in orbit_table.reps} | set(range(0, hc.N_CODES, 16)))
    for h in codes:
        s = sv.build_state(h)
        p = sv.entropy_profile(h)
        rhos = [sv.reduced_density(s, cut) for cut in sv.ONE_CUTS + sv.TWO_CUTS]
        alone = [sv.entropy(rho) for rho in rhos]
        assert np.array(p.be1 + p.be2).tobytes() == np.array(alone).tobytes(), h
        reference = [_entropy_dropping_small_eigenvalues(rho) for rho in rhos]
        assert np.array(alone).tobytes() == np.array(reference).tobytes(), h


def test_entropy_profile_invariant_under_permutation_as_multiset():
    rng = np.random.default_rng(47)
    for h in rng.integers(0, hc.N_CODES, size=15):
        h = int(h)
        p = sv.entropy_profile(h)
        q = sv.entropy_profile(hc.act(h, (2, 3, 4, 1)))
        assert np.allclose(sorted(p.be1), sorted(q.be1), atol=1e-10)
        assert np.allclose(sorted(p.be2), sorted(q.be2), atol=1e-10)

"""Unit tests for the closest-product solver and its oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgstate import geoment as gm
from hgstate import hypercore as hc
from hgstate import orbits as ob
from hgstate import statevec as sv


def test_solve_policy_validation():
    with pytest.raises(ValueError):
        gm.SolvePolicy(max_iter=0)
    with pytest.raises(ValueError):
        gm.SolvePolicy(seed=-1)


def test_solve_policy_rejects_non_integers():
    for knob, value in (("max_iter", 2.5), ("seed", 1.5)):
        with pytest.raises(TypeError):
            gm.SolvePolicy(**{knob: value})
    policy = gm.SolvePolicy(max_iter=np.int32(50), seed=np.uint8(3))
    assert (policy.max_iter, policy.seed) == (50, 3)
    assert {type(policy.max_iter), type(policy.seed)} == {int}


def test_product_state_validation():
    with pytest.raises(ValueError):
        gm.ProductState(np.ones((4, 2)))
    gm.ProductState(np.full((4, 2), np.sqrt(0.5)))  # unit rows pass


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_product_state_rejects_non_finite_amplitudes(bad):
    q = np.full((4, 2), np.sqrt(0.5))
    q[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        gm.ProductState(q)
    with pytest.raises(ValueError, match="finite"):
        gm.ProductState(np.full((4, 2), bad))


def test_product_codes_have_zero_ge():
    # codes built purely from single-vertex edges are product states
    loop_bits = [1, 2, 8, 128]
    for picks in itertools.chain.from_iterable(
        itertools.combinations(loop_bits, k) for k in range(5)
    ):
        h = sum(picks)
        sol = gm.solve_code(h)
        assert sol.overlap <= 1.0
        assert 0.0 <= sol.eg < 1e-12


def test_solver_is_deterministic():
    h = hc.parse_edges("1234,12,13")
    a = gm.solve_code(h)
    b = gm.solve_code(h)
    assert a.eg == b.eg
    assert np.array_equal(a.witness.qubits, b.witness.qubits)


def test_monotone_ascent():
    rng = np.random.default_rng(53)
    for h in rng.integers(0, hc.N_CODES, size=12):
        sol = gm.solve_code(int(h))
        assert sol.converged
        assert sol.monotone_slack <= 1e-14


def test_converged_witness_is_a_fixed_point():
    # two more sweeps from a converged witness leave its overlap in place
    rng = np.random.default_rng(59)
    for h in rng.integers(0, hc.N_CODES, size=8):
        sol = gm.solve_code(int(h))
        phi = sol.witness.qubits[None].copy()
        gm._sweep(sol.tensor, phi)
        gm._sweep(sol.tensor, phi)
        assert abs(np.abs(gm._contract(sol.tensor, phi))[0] - sol.overlap) < 1e-11


# every generator of the local group: X_i, Z_i and the 24 vertex permutations
_MOVES = ([{"x_mask": 1 << v} for v in range(hc.N_VERTICES)]
          + [{"z_mask": 1 << v} for v in range(hc.N_VERTICES)]
          + [{"p": p} for p in hc.ALL_PERMUTATIONS])


@settings(max_examples=25, deadline=None, database=None)
@given(h=st.integers(0, hc.N_CODES - 1), word=st.lists(st.sampled_from(_MOVES), min_size=1, max_size=8))
def test_group_words_preserve_every_invariant(h, word):
    img = h
    for move in word:
        img = hc.act(img, **move)
    assert ob.orbit_of(img).rep == ob.orbit_of(h).rep
    assert hc.rank(hc.standardize(img)) == hc.rank(hc.standardize(h))
    p, q = sv.entropy_profile(h), sv.entropy_profile(img)
    assert np.allclose(sorted(p.be1), sorted(q.be1), atol=1e-10)
    assert np.allclose(sorted(p.be2), sorted(q.be2), atol=1e-10)
    assert sv.verify_stabilizers(img) and sv.verify_stabilizers(h)
    # at the default policy every one of the 32768 codes converges (in at
    # most 341 sweeps) and reaches its orbit rep's GE to within 5.6e-13
    # (checked once, exhaustively), so any draw can be compared
    assert abs(gm.solve_code(img).eg - gm.solve_code(h).eg) < 1e-6


def test_degeneracy_pattern_four_edge():
    sol = gm.solve_code(hc.parse_edges("1234"))
    pat = gm.degeneracy_pattern(sol)
    assert pat.label == "4"
    assert pat.reality == "R"
    assert pat.census  # census lists every competing grouping


def _real_qubits(*angles):
    return np.array([[np.cos(t), np.sin(t)] for t in angles])


def test_partition_sizes_join_chains_of_close_states():
    # fidelity cos(dt) is above 1 - MERGE_TOL for dt = 1e-3, below for 2e-3
    stack = np.array([
        _real_qubits(0.0, 1.0, 2.0, 3.0),
        _real_qubits(0.0, 1.0, 0.0, 1.0),
        _real_qubits(0.0, 1.0, 1e-3, 2.0),
        _real_qubits(0.0, 0.0, 1e-3, 2.0),
        # the chain 1 - 4 - 3 - 2 is linked only through its neighbours, and
        # its pairs arrive in an order where merging single qubits breaks it
        _real_qubits(0.0, 3e-3, 2e-3, 1e-3),
    ])
    assert gm._partition_sizes(stack) == [(1, 1, 1, 1), (2, 2), (2, 1, 1), (3, 1), (4,)]


def _components(linked) -> tuple[int, ...]:
    """Sizes (descending) of the connected components of a 4-vertex graph
    given as a symmetric boolean adjacency matrix, by depth-first search."""
    seen, sizes = set(), []
    for start in range(4):
        if start in seen:
            continue
        group, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(4):
                if linked[i][j] and j not in group:
                    group.add(j)
                    stack.append(j)
        seen |= group
        sizes.append(len(group))
    return tuple(sorted(sizes, reverse=True))


def _reference_partition(phi) -> tuple[int, ...]:
    """Group sizes of one witness, one np.vdot per pair of qubits."""
    return _components([[abs(np.vdot(phi[i], phi[j])) > 1.0 - gm.MERGE_TOL
                         for j in range(4)] for i in range(4)])


def test_partition_table_matches_reference_merge():
    pairs = list(itertools.combinations(range(4), 2))
    assert len(gm._PARTITIONS) == 64
    for mask in range(64):
        linked = np.zeros((4, 4), dtype=bool)
        for bit, (i, j) in enumerate(pairs):
            linked[i, j] = linked[j, i] = bool(mask >> bit & 1)
        assert gm._PARTITIONS[mask] == _components(linked), mask


# a qubit is (cos t, e^{ia} sin t) up to a global phase, with t an anchor plus
# a multiple of 1e-3, so that qubits on one anchor form chains: neighbours
# 1e-3 apart coincide, qubits 2e-3 or more apart do not
_QUBIT = st.tuples(st.sampled_from([0.0, 0.7, 1.9]), st.integers(0, 3),
                   st.sampled_from([0.0, 0.9]), st.floats(0.0, 2.0 * math.pi))


def _qubit_state(anchor, steps, relative, phase):
    t = anchor + steps * 1e-3
    return np.exp(1j * phase) * np.array([np.cos(t), np.exp(1j * relative) * np.sin(t)])


@settings(max_examples=60, deadline=None, database=None)
@given(stack=st.lists(st.lists(_QUBIT, min_size=4, max_size=4), min_size=1, max_size=8))
def test_batched_partitions_match_per_witness_merge(stack):
    phi = np.array([[_qubit_state(*q) for q in witness] for witness in stack])
    assert gm._partition_sizes(phi) == [_reference_partition(w) for w in phi]


def test_ascend_stops_at_the_first_iteration_below_tol():
    # up to EXTRAPOLATE_AFTER iterations _ascend runs plain sweeps, so repeated
    # _sweep calls give its per-iteration overlaps: it stops at the first
    # iteration (after the first) where no restart rose by TOL, or at the cap
    tensor = sv.state_tensor(sv.build_state(16436))
    starts = gm._random_product_batch(np.random.default_rng(101), 4)
    phi = starts.copy()
    trail = [gm._sweep(tensor, phi) for _ in range(gm.EXTRAPOLATE_AFTER)]
    k = next(n for n in range(1, gm.EXTRAPOLATE_AFTER) if np.all(trail[n] - trail[n - 1] < gm.TOL))
    ascended = starts.copy()
    iterations, stop, _, overlap = gm._ascend(tensor, ascended, gm.DEFAULT_MAX_ITER)
    assert (iterations, stop) == (k + 1, "tol")
    assert np.array_equal(overlap, trail[k])
    capped = starts.copy()
    iterations, stop, _, overlap = gm._ascend(tensor, capped, k)
    assert (iterations, stop) == (k, "max_iter")
    assert np.array_equal(overlap, trail[k - 1])


def _real_product_overlaps(tensor, rng, n):
    """|<Phi|psi>| for n random real product states (cos t, sin t), four
    uniform angles t each."""
    t = rng.uniform(0.0, np.pi, size=(n, 4))
    return np.abs(gm._contract(tensor, np.stack((np.cos(t), np.sin(t)), axis=-1)))


def test_real_certificate_is_sound_for_every_class(classification, solutions):
    # dense random real product states never beat the proved bound, and each
    # "R" witness gives back its overlap through the general contraction
    records, graphs = classification
    rng = np.random.default_rng(103)
    for record in records + graphs:
        sol = solutions[record.rep]
        best, witness, bound, evaluations = gm._best_real_overlap(sol.tensor, sol.overlap)
        assert evaluations == record.pattern.evaluations, record.rep
        assert _real_product_overlaps(sol.tensor, rng, 4096).max() <= bound, record.rep
        rebuilt = gm.ProductState(witness.qubits)
        assert abs(abs(gm._contract(sol.tensor, rebuilt.qubits[None])[0]) - best) < 1e-12
        if record.pattern.reality == "R":
            assert best >= sol.overlap - gm.HIT_WINDOW, record.rep
        else:
            assert bound < sol.overlap - gm.REAL_GAP, record.rep


def test_early_stop_keeps_the_reality_decision(classification, solutions):
    # the zoom stops at the hit window; an overlap of 2 is out of reach, so
    # it runs every level and the branch-and-bound retires every box at once
    records, graphs = classification
    assert len(records + graphs) == 39
    for record in records + graphs:
        sol = solutions[record.rep]
        hit = sol.overlap - gm.HIT_WINDOW
        early = gm._best_real_overlap(sol.tensor, sol.overlap)[0]
        full, _, _, evaluations = gm._best_real_overlap(sol.tensor, 2.0)
        assert evaluations == gm.START_GRID**2 + 2 * len(gm._ZOOM) * gm.ZOOM_LEVELS
        assert (early >= hit) == (full >= hit) == (record.pattern.reality == "R"), record.rep
        if record.pattern.reality == "R":
            # every level zooms in on the real optimum, which is the complex one
            assert early <= full and abs(full - sol.overlap) < 1e-12, record.rep


def test_perturbing_a_complex_class_towards_a_real_witness_flips_or_raises(monkeypatch):
    # row 7 (rep 16436) is "C"; mixing in its best real product state closes
    # the gap between its real and complex optima, until a real witness wins
    tensor = sv.state_tensor(sv.build_state(16436))
    _, witness, _, _ = gm._best_real_overlap(tensor, gm.solve_code(16436).overlap)
    product = np.einsum("a,b,c,d->abcd", *witness.qubits.real)
    rng = np.random.default_rng(107)
    outcomes = []
    for eps in (0.0, 0.03, 0.06, 0.1):
        mixed = tensor + eps * product
        monkeypatch.setattr(sv, "state_tensor", lambda s, t=mixed / np.linalg.norm(mixed): t)
        sol = gm.solve_code(16436)
        try:
            reality = gm.degeneracy_pattern(sol).reality
        except gm.RealityUndecided:
            outcomes.append("undecided")
            continue
        best, witness, bound, _ = gm._best_real_overlap(sol.tensor, sol.overlap)
        if reality == "C":
            assert _real_product_overlaps(sol.tensor, rng, 4096).max() <= bound < sol.overlap - gm.REAL_GAP
        else:
            assert abs(gm._contract(sol.tensor, witness.qubits[None])[0]) >= sol.overlap - gm.HIT_WINDOW
        outcomes.append(reality)
    # at eps = 0.06 the real optimum is 7e-5 short, too close to prove within
    # MAX_EVALUATIONS, so the search says so rather than guessing
    assert outcomes == ["C", "C", "undecided", "R"]


def test_undecided_reality_raises(solutions, monkeypatch):
    # row 7 needs branch-and-bound levels to prove "C"; with no evaluations
    # to spare the search ends undecided, and says so
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    with pytest.raises(gm.RealityUndecided, match="evaluations"):
        gm.degeneracy_pattern(solutions[16436])


def test_symmetric_z_iteration_attractor():
    z = gm.symmetric_z_iteration(0.5 + 0.5j)
    exact = gm.symmetric_z_closed_form()
    assert abs(z.imag) < 1e-9
    assert abs(z.real - exact) < 1e-10
    assert abs(gm.symmetric_cubic_residual(z)) < 1e-9
    assert abs(gm.symmetric_cubic_residual(exact)) < 1e-12


def test_symmetric_z_iteration_pole_handling():
    with pytest.raises(ValueError):
        gm.symmetric_z_iteration(-1.0)
    with pytest.raises(gm.IterationDiverged):
        gm.symmetric_z_iteration(-1.0 + 1e-10j)
    assert issubclass(gm.IterationDiverged, RuntimeError)


def test_triangle_closed_form_value():
    assert abs(gm.triangle_eg_closed_form() - 0.5647186012585346) < 1e-14


def test_closed_form_values_sane():
    vals = gm.closed_form_values()
    assert len(vals) == 16
    assert all(v > 0 for v in vals.values())
    assert set(vals) <= set(range(1, 29))


def test_real_optimum_never_beats_the_solver():
    rng = np.random.default_rng(67)
    for h in rng.integers(0, hc.N_CODES, size=6):
        sol = gm.solve_code(int(h))
        best, _, bound, _ = gm._best_real_overlap(sol.tensor, sol.overlap)
        assert best <= sol.overlap + 1e-12 and best <= bound


def test_real_optimum_matches_solver_on_real_witness_state():
    sol = gm.solve_code(hc.parse_edges("1234"))
    best, witness, _, _ = gm._best_real_overlap(sol.tensor, sol.overlap)
    assert sol.overlap - gm.HIT_WINDOW <= best <= sol.overlap + 1e-12
    assert np.array_equal(witness.qubits.imag, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# sweep kernel against the qubit-by-qubit einsum reference

_REF_ENV_SPECS = (
    "abcd,rb,rc,rd->ra",
    "abcd,ra,rc,rd->rb",
    "abcd,ra,rb,rd->rc",
    "abcd,ra,rb,rc->rd",
)


def _reference_sweep(tensor, phi):
    """One Gauss-Seidel sweep, one 4-operand einsum per qubit."""
    for i in range(4):
        others = [phi[:, j] for j in range(4) if j != i]
        env = np.einsum(_REF_ENV_SPECS[i], tensor, *others)
        norm = np.linalg.norm(env, axis=1)
        safe = norm > 1e-300
        phi[:, i] = np.where(
            safe[:, None], env.conj() / np.where(safe, norm, 1.0)[:, None], phi[:, i]
        )
    return norm


def _random_tensor(rng):
    t = rng.normal(size=(2,) * 4) + 1j * rng.normal(size=(2,) * 4)
    return t / np.linalg.norm(t)


def _assert_sweep_matches_reference(tensor, phi):
    ours, ref = phi.copy(), phi.copy()
    overlap = gm._sweep(tensor, ours)
    ref_overlap = _reference_sweep(tensor, ref)
    assert ours.dtype == phi.dtype
    assert np.max(np.abs(ours - ref)) < 1e-13
    assert np.max(np.abs(overlap - ref_overlap)) < 1e-13
    return ours, overlap


@pytest.mark.parametrize("which", ["row 28", "random complex"])
def test_sweep_matches_einsum_reference(which):
    rng = np.random.default_rng(71)
    if which == "row 28":
        tensor = sv.state_tensor(sv.build_state(13652)).astype(complex)
    else:
        tensor = _random_tensor(rng)
    phi = gm._random_product_batch(rng, 16)
    for _ in range(5):
        phi, _ = _assert_sweep_matches_reference(tensor, phi)


def test_sweep_matches_einsum_reference_in_real_arithmetic():
    # the kernel is dtype-generic: real witnesses stay real, with no upcast
    rng = np.random.default_rng(73)
    tensor = sv.state_tensor(sv.build_state(13652))
    phi = rng.normal(size=(16, 4, 2))
    phi /= np.linalg.norm(phi, axis=2, keepdims=True)
    for _ in range(5):
        phi, overlap = _assert_sweep_matches_reference(tensor, phi)
        assert phi.dtype == overlap.dtype == np.float64


def test_sweep_keeps_a_restart_with_zero_environment():
    # |0000> has a zero environment for every qubit of a restart whose
    # first two qubits are exactly |1>
    tensor = np.zeros((2,) * 4, dtype=complex)
    tensor[0, 0, 0, 0] = 1.0
    phi = gm._random_product_batch(np.random.default_rng(79), 4)
    phi[2, :2] = (0.0, 1.0)
    before = phi[2].copy()
    ours, overlap = _assert_sweep_matches_reference(tensor, phi)
    assert np.array_equal(ours[2], before)
    assert overlap[2] == 0.0
    assert np.all(np.delete(overlap, 2) > 0.0)


def test_sweep_keeps_a_restart_whose_first_environment_alone_is_zero():
    # for (|0000> + |1111>)/sqrt2 with qubit 2 at |1> and qubit 3 at |0>,
    # only qubit 1 sees a zero environment; the zero must not reach qubits
    # 2 to 4, which move as the qubit-by-qubit order moves them
    tensor = np.zeros((2,) * 4, dtype=complex)
    tensor[0, 0, 0, 0] = tensor[1, 1, 1, 1] = math.sqrt(0.5)
    phi = gm._random_product_batch(np.random.default_rng(81), 4)
    phi[1, 1:3] = ((0.0, 1.0), (1.0, 0.0))
    before = phi[1].copy()
    ours, overlap = _assert_sweep_matches_reference(tensor, phi)
    assert np.array_equal(ours[1, 0], before[0])
    assert not any(np.array_equal(ours[1, k], before[k]) for k in (1, 2, 3))
    assert np.all(overlap > 0.0)


def test_sweep_pins_over_the_session_classification(records, graph_records, monkeypatch):
    # the solve calls _sweep through the module attribute, once per
    # iteration up to EXTRAPOLATE_AFTER and three times per extrapolation
    # step after it, so a wrapper there (as the benchmark's tracer installs
    # it) counts exactly that many calls for the iterations a record reports
    every = records + graph_records
    assert len(every) == 39 and sum(r.sweeps for r in every) == 1766
    assert next(r.sweeps for r in records if r.rep == 13652) == 190
    calls = 0
    sweep = gm._sweep

    def counted(tensor, phi):
        nonlocal calls
        calls += 1
        return sweep(tensor, phi)

    monkeypatch.setattr(gm, "_sweep", counted)
    iterations = gm.solve_code(13652).sweeps
    assert iterations == 190 and calls == 370
    assert calls == gm.EXTRAPOLATE_AFTER + 3 * (iterations - gm.EXTRAPOLATE_AFTER)


def test_contract_matches_einsum_reference():
    rng = np.random.default_rng(83)
    tensor = _random_tensor(rng)
    phi = gm._random_product_batch(rng, 16)
    ref = np.einsum("abcd,ra,rb,rc,rd->r", tensor, phi[:, 0], phi[:, 1], phi[:, 2], phi[:, 3])
    assert np.max(np.abs(gm._contract(tensor, phi) - ref)) < 1e-13


def test_solver_counters_at_default_policy():
    """Iteration counts and stop reasons of two known solves.

    Row 28 (rep 13652) crawled through 4361 plain sweeps before the solve
    gained its finish, and 13654 (same orbit) stopped at the 5000-sweep
    cap; both now converge 90 SQUAREM iterations after the switch point.
    A deliberate change to the solver's convergence is expected to change
    these counts.
    """
    row28 = gm.solve_code(13652)
    assert (row28.sweeps, row28.stop, row28.converged) == (190, "tol", True)
    formerly_capped = gm.solve_code(13654)
    assert (formerly_capped.sweeps, formerly_capped.stop) == (190, "tol")
    assert formerly_capped.converged is True


# exact best overlaps of the orbits whose plain alternating solve crawled:
# row 28 (3/4) and four graph-state orbits (1/2)
SLOW_REPS = {13652: 0.75, 820: 0.5, 292: 0.5, 308: 0.5, 816: 0.5}


def test_slow_orbits_converge_at_every_seed():
    for rep, exact in SLOW_REPS.items():
        for seed in range(32):
            sol = gm.solve_code(rep, gm.SolvePolicy(seed=seed))
            assert sol.converged and sol.sweeps <= 500, (rep, seed, sol.sweeps)
            if seed == 0:
                assert abs(sol.overlap - exact) < 1e-12, (rep, sol.overlap)


@pytest.mark.slow
def test_every_code_converges_to_its_orbit_reps_overlap(orbit_table):
    # a query may name any code, so every one of the 2^15 solves at the
    # default policy stops on "tol" within the bound above, at the overlap
    # of its orbit's rep
    reps = orbit_table.reps[orbit_table.class_id].astype(int)
    rep_overlap = {rep: gm.solve_code(rep).overlap for rep in set(reps)}
    for h, rep in enumerate(reps):
        sol = gm.solve_code(h)
        assert sol.stop == "tol" and sol.sweeps <= 500, (h, sol.stop, sol.sweeps)
        assert abs(sol.overlap - rep_overlap[rep]) < 1e-11, (h, rep, sol.overlap)


@pytest.mark.parametrize("real_tensor", [False, True])
def test_extrapolate_keeps_a_maximum_fixed(real_tensor):
    # a generic tensor has a nondegenerate maximum, and at it the sweep map
    # has stopped moving, so the step leaves it where it is.  The solve's own
    # case is a real tensor with complex witnesses
    rng = np.random.default_rng(89)
    tensor = rng.normal(size=(2,) * 4) if real_tensor else _random_tensor(rng)
    tensor /= np.linalg.norm(tensor)
    phi = gm._random_product_batch(rng, 16)
    for _ in range(300):
        gm._sweep(tensor, phi)
    overlap = np.abs(gm._contract(tensor, phi))
    best = phi[np.argmax(overlap)]
    at_best = best[None].copy()
    stepped = gm._extrapolate(tensor, at_best)
    assert np.max(np.abs(at_best - best)) < 1e-12
    assert abs(stepped[0] - overlap.max()) < 1e-12


def test_extrapolate_never_loses_ground():
    # from 256 random restarts and from each of the next 19 sweeps, the step
    # never ends below its start nor below two plain sweeps from it, though
    # unchecked it would from about the tenth sweep on; on some restart the
    # extrapolation gains on those two sweeps
    rng = np.random.default_rng(97)
    tensor = sv.state_tensor(sv.build_state(13652)).astype(complex)
    phi = gm._random_product_batch(rng, 256)
    gained = 0.0
    for _ in range(20):
        before = np.abs(gm._contract(tensor, phi))
        swept, stepped = phi.copy(), phi.copy()
        gm._sweep(tensor, swept)
        two_sweeps = gm._sweep(tensor, swept)
        overlap = gm._extrapolate(tensor, stepped)
        after = np.abs(gm._contract(tensor, stepped))
        assert np.max(np.abs(after - overlap)) < 1e-14
        assert np.all(after >= before - 1e-15)
        assert np.all(overlap >= two_sweeps)
        gained = max(gained, float(np.max(overlap - two_sweeps)))
        gm._sweep(tensor, phi)
    assert gained > 1e-6


def test_extrapolate_keeps_x2_when_the_extrapolated_qubit_is_zero(monkeypatch):
    # a sweep that halves every amplitude gives alpha = -2, and then
    # y = x0 - 2 alpha r + alpha^2 v is exactly 0.  It reports one overlap
    # throughout, so the overlap test alone would take the swept y: the
    # zero-norm guard keeps x2, with no division by zero
    def halve(tensor, phi):
        phi /= 2.0
        return np.ones(len(phi))

    monkeypatch.setattr(gm, "_sweep", halve)
    tensor = sv.state_tensor(sv.build_state(13652)).astype(complex)
    start = gm._random_product_batch(np.random.default_rng(109), 8)
    phi = start.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overlap = gm._extrapolate(tensor, phi)
    assert np.array_equal(phi, start / 4.0)
    assert np.array_equal(overlap, np.ones(len(phi)))
    assert np.isfinite(phi).all() and np.isfinite(overlap).all()

"""Unit tests for the closest-product solver and its oracles."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgstate import geoment as gm
from hgstate import hypercore as hc
from hgstate import orbits as ob
from hgstate import statevec as sv


def _restart_major(phi, back=False):
    """Restarts laid out (..., R, 4, 2), one product state per row, as the
    kernel takes them, (..., 4, 2, R) and contiguous; ``back`` undoes it."""
    return np.ascontiguousarray(np.moveaxis(phi, -1, -3) if back else np.moveaxis(phi, -3, -1))


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
        phi = _restart_major(sol.witness.qubits[None])
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
    # most 148 iterations) and reaches its orbit rep's overlap to within
    # 2.7e-13 and its GE to within 1.1e-12 (checked once, exhaustively), so
    # any draw can be compared
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
    # every _ascend iteration is one _extrapolate step (on the real tensor,
    # which _ascend passes on uncast), so a trail of steps from the same
    # start gives its per-iteration overlaps and restarts: a one-code stack
    # stops at the first iteration k > 1 where no restart rose by TOL, with
    # the restarts of step k, and at max_iter = k - 1 on the cap, with those
    # of step k - 1
    tensor = sv.state_tensor(sv.build_state(16436))
    starts = _restart_major(gm._random_product_batch(np.random.default_rng(101), 4))
    phi = starts.copy()
    trail, points = [], []
    for _ in range(60):
        trail.append(gm._extrapolate(tensor, phi))
        points.append(phi.copy())
    k = next(n for n in range(2, 61) if np.all(trail[n - 1] - trail[n - 2] < gm.TOL))
    assert k > 2
    ascended = starts[None].copy()
    iterations, stops, _ = gm._ascend(tensor[None], ascended, gm.DEFAULT_MAX_ITER)
    assert (iterations[0], stops[0]) == (k, "tol")
    assert np.array_equal(ascended[0], points[k - 1])
    capped = starts[None].copy()
    iterations, stops, _ = gm._ascend(tensor[None], capped, k - 1)
    assert (iterations[0], stops[0]) == (k - 1, "max_iter")
    assert np.array_equal(capped[0], points[k - 2])
    assert not np.array_equal(points[k - 1], points[k - 2])


def _bits(sol):
    """Every field of a solution as (name, shape, dtype, bytes)."""
    out = []
    for f in dataclasses.fields(sol):
        value = getattr(sol, f.name)
        a = np.asarray(value.qubits if isinstance(value, gm.ProductState) else value)
        out.append((f.name, a.shape, a.dtype.str, a.tobytes()))
    return out


# eleven codes, more than one batch: row 28's rep and a code of its orbit,
# the four graph reps whose plain sweeps crawled, and quick ones such as
# the product state 0
BATCH_MIX = (820, 0, 13652, 16384, 292, 1104, 13654, 308, 64, 816, 16436)


@pytest.mark.parametrize("max_iter", [gm.DEFAULT_MAX_ITER, 5])
def test_batched_solves_match_one_code_solves(max_iter):
    # each code leaves its batch at its own iteration and keeps the bits of
    # its one-code solve, in either input order; at max_iter = 5 some codes
    # stop on tol and others on the cap within one batch
    policy = gm.SolvePolicy(max_iter=max_iter)
    assert len(BATCH_MIX) > gm.BATCH
    one_by_one = {h: gm.solve_code(h, policy) for h in BATCH_MIX}
    for codes in (BATCH_MIX, BATCH_MIX[::-1]):
        batched = list(gm.solve_codes(codes, policy))
        assert [_bits(sol) for sol in batched] == [_bits(one_by_one[h]) for h in codes]
    first = [one_by_one[h] for h in BATCH_MIX[:gm.BATCH]]
    assert len({sol.iterations for sol in first}) > 1
    if max_iter == 5:
        assert {sol.stop for sol in first} == {"tol", "max_iter"}
    # a kept solution's witness owns its amplitudes, not a view of its
    # batch's restarts, so a caller can keep a whole classification's
    assert all(sol.witness.qubits.base is None for sol in batched)


@pytest.mark.parametrize("rep", [13652, 16436, 820])
def test_top_singular_matches_svd(rep):
    # the closed form on the shared pair products against a full SVD of
    # M = sum_ab a_a b_b T[a, b, :, :], on 1,000 random angle pairs
    tensor = sv.state_tensor(sv.build_state(rep))
    angles = np.random.default_rng(rep).uniform(0.0, np.pi, size=(1000, 2))
    a, b = (np.stack((np.cos(t), np.sin(t)), axis=-1) for t in angles.T)
    m = np.einsum("na,nb,abcd->ncd", a, b, tensor)
    sigma = np.linalg.svd(m, compute_uv=False)[:, 0]
    assert np.max(np.abs(gm._top_singular(tensor, gm._real_pairs(angles)) - sigma)) < 1e-14


def _search_one(tensor, overlap, best=-math.inf):
    """The reality proof of one tensor (2, 2, 2, 2), run as a stack of one."""
    return gm._best_real_overlap(tensor[None], [overlap], [best])[0]


def test_constant_start_grid_gives_the_bits_of_the_angle_path(orbit_table, solutions):
    # the reality proof reads its start grid's pair products from a module
    # constant; on every rep they give the values of the per-call angle path
    # bit for bit, and a proof leaves the constant as it was
    angle_path = gm._real_pairs(gm._START)
    assert gm._START_PAIRS.shape == (4, gm.START_GRID**2)
    for rep in orbit_table.reps:
        sol = solutions[int(rep)]
        ours = gm._top_singular(sol.tensor, gm._START_PAIRS)
        assert ours.tobytes() == gm._top_singular(sol.tensor, angle_path).tobytes(), rep
        _search_one(sol.tensor, sol.overlap, sol.real_overlap)
    assert gm._START_PAIRS.tobytes() == angle_path.tobytes()


def _reference_reality(tensor, overlap, best):
    """The reality proof of one code, step by step: one evaluation per
    start grid and branch-and-bound level, the running best taken after
    each from the best already found, on the proof's own closed form and
    grids."""
    ceiling = overlap - gm.REAL_GAP
    slope = 2.0 * float(np.linalg.norm(tensor))
    evaluations = 0

    def evaluate(boxes):
        nonlocal best, evaluations
        values = gm._top_singular(tensor, gm._real_pairs(boxes))
        evaluations += values.size
        best = max(best, float(values.max()))
        return values

    boxes, half = gm._START, math.pi / (2 * gm.START_GRID)
    values = evaluate(boxes)
    retired = -math.inf
    while best < ceiling:
        live = values + slope * half >= ceiling
        retired = max(retired, np.max(values[~live], initial=-math.inf) + slope * half)
        boxes, values = boxes[live], values[live]
        if not len(boxes) or evaluations + 4 * len(boxes) > gm.MAX_EVALUATIONS:
            break
        half /= 2.0
        boxes = (boxes[:, None] + half * gm._CHILDREN).reshape(-1, 2)
        values = evaluate(boxes)
    return best, float(max(retired, np.max(values, initial=-math.inf) + slope * half)), evaluations


def _search_bits(best, bound, evaluations):
    return np.float64(best).tobytes(), np.float64(bound).tobytes(), evaluations


# BATCH_MIX (row 28, the product state 0 and row 7, a "C" class) with rows 17
# and 11, also "C" after branch-and-bound levels, and graph rep 52, "C" on
# the start grid alone
REALITY_MIX = BATCH_MIX + (3136, 19252, 52)


@pytest.mark.parametrize("stack", ["reps", "reps reversed", "mixed", "one"])
def test_stacked_reality_search_is_the_one_code_search(stack, orbit_table):
    # every code of a stack gets the bits of its own stack of one, and those
    # the bits of the step-by-step reference: best, bound, evaluations.  The
    # proof runs here on "R" codes too, which the patterns never ask of it
    reps = [int(rep) for rep in orbit_table.reps]
    codes = {"reps": reps, "reps reversed": reps[::-1], "mixed": REALITY_MIX, "one": (3136,)}[stack]
    sols = list(gm.solve_codes(codes))
    stacked = gm._best_real_overlap(np.array([s.tensor for s in sols]), [s.overlap for s in sols],
                                    [s.real_overlap for s in sols])
    assert len(stacked) == len(codes)
    for h, sol, found in zip(codes, sols, stacked, strict=True):
        one = _search_one(sol.tensor, sol.overlap, sol.real_overlap)
        reference = _reference_reality(sol.tensor, sol.overlap, sol.real_overlap)
        assert _search_bits(*found) == _search_bits(*one) == _search_bits(*reference), h


def test_degeneracy_patterns_are_the_one_code_patterns(solutions, monkeypatch):
    # one stacked proof gives each solution its one-code pattern; an
    # undecided reality names the first undecided solution in input order
    sols = list(solutions.values())
    assert list(gm.degeneracy_patterns(sols)) == [gm.degeneracy_pattern(sol) for sol in sols]
    assert list(gm.degeneracy_patterns([])) == []
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    for first, second in ((16436, 3136), (3136, 16436)):
        with pytest.raises(gm.RealityUndecided, match=f"against {solutions[first].overlap:.12f} in"):
            list(gm.degeneracy_patterns([solutions[0], solutions[first], solutions[second]]))


def test_degeneracy_patterns_raise_when_the_undecided_one_is_reached(solutions, monkeypatch):
    # the stacked proof runs on the call, once, on the codes the riders
    # leave short (rep 3136 alone); the patterns come out one at a time, so
    # rep 0's pattern is handed out before rep 3136's undecided reality raises
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    stacks = []
    search = gm._best_real_overlap

    def counted(tensors, overlaps, best):
        stacks.append(tensors.shape)
        return search(tensors, overlaps, best)

    monkeypatch.setattr(gm, "_best_real_overlap", counted)
    patterns = gm.degeneracy_patterns([solutions[0], solutions[3136]])
    assert stacks == [(1, 2, 2, 2, 2)]
    assert next(patterns) == gm.degeneracy_pattern(solutions[0])
    with pytest.raises(gm.RealityUndecided, match=f"against {solutions[3136].overlap:.12f} in"):
        next(patterns)


def _real_product_overlaps(tensor, rng, n):
    """|<Phi|psi>| for n random real product states (cos t, sin t), four
    uniform angles t each."""
    t = rng.uniform(0.0, np.pi, size=(n, 4))
    return np.abs(gm._contract(tensor, _restart_major(np.stack((np.cos(t), np.sin(t)), axis=-1))))


def _rebuilt_overlap(tensor, witness):
    """|<Phi|psi>| of one product state, through the general contraction."""
    return abs(gm._contract(tensor, _restart_major(witness.qubits[None]))[0])


def test_real_certificate_is_sound_for_every_class(classification, solutions):
    # dense random real product states never beat the proved bound, run on
    # every class; an "R" class is decided by its rider witness, real and
    # at the complex optimum, with no proof evaluations, and a "C" class by
    # a proof whose best stays short of the hit window and whose bound
    # stays REAL_GAP below the overlap
    records, graphs = classification
    assert len(records + graphs) == 39
    rng = np.random.default_rng(103)
    for record in records + graphs:
        sol = solutions[record.rep]
        best, bound, evaluations = _search_one(sol.tensor, sol.overlap, sol.real_overlap)
        assert _real_product_overlaps(sol.tensor, rng, 4096).max() <= bound, record.rep
        assert not sol.real_witness.qubits.imag.any(), record.rep
        assert _rebuilt_overlap(sol.tensor, sol.real_witness) == pytest.approx(sol.real_overlap, abs=1e-14)
        if record.pattern.reality == "R":
            assert record.pattern.evaluations == 0, record.rep
            assert abs(sol.real_overlap - sol.overlap) < 1e-12, record.rep
        else:
            assert evaluations == record.pattern.evaluations, record.rep
            assert best < sol.overlap - gm.HIT_WINDOW and bound < sol.overlap - gm.REAL_GAP, record.rep


def test_perturbing_a_complex_class_towards_a_real_witness_flips_or_raises(monkeypatch):
    # row 7 (rep 16436) is "C"; mixing in its rider witness, its best real
    # product state, closes the gap between its real and complex optima,
    # until a real witness wins.  The perturbed amplitudes replace the
    # state's, while the riders stay ranked from row 7's +-1 signs
    tensor = sv.state_tensor(sv.build_state(16436))
    product = np.einsum("a,b,c,d->abcd", *gm.solve_code(16436).real_witness.qubits.real)
    state_tensor = sv.state_tensor
    rng = np.random.default_rng(107)
    outcomes = []
    for eps in (0.0, 0.03, 0.06, 0.1):
        mixed = tensor + eps * product
        monkeypatch.setattr(sv, "state_tensor", lambda s, t=mixed / np.linalg.norm(mixed):
                            t if np.abs(s).max() < 1.0 else state_tensor(s))
        sol = gm.solve_code(16436)
        try:
            reality = gm.degeneracy_pattern(sol).reality
        except gm.RealityUndecided:
            outcomes.append("undecided")
            continue
        if reality == "C":
            _, bound, _ = _search_one(sol.tensor, sol.overlap, sol.real_overlap)
            assert _real_product_overlaps(sol.tensor, rng, 4096).max() <= bound < sol.overlap - gm.REAL_GAP
        else:
            assert not sol.real_witness.qubits.imag.any()
            assert _rebuilt_overlap(sol.tensor, sol.real_witness) >= sol.overlap - gm.HIT_WINDOW
        outcomes.append(reality)
    # at eps = 0.06 the real optimum is 7e-5 short, too close to prove within
    # MAX_EVALUATIONS, so the proof says so rather than guessing
    assert outcomes == ["C", "C", "undecided", "R"]


def test_undecided_reality_raises(solutions, monkeypatch):
    # row 7 needs branch-and-bound levels to prove "C"; with no evaluations
    # to spare the proof ends undecided, and says so.  Its best real overlap
    # is the riders' it was seeded with, above the start grid's best
    monkeypatch.setattr(gm, "MAX_EVALUATIONS", 0)
    sol = solutions[16436]
    assert sol.real_overlap > gm._top_singular(sol.tensor, gm._START_PAIRS).max()
    with pytest.raises(gm.RealityUndecided, match=f"best real overlap {sol.real_overlap:.12f} .* evaluations"):
        gm.degeneracy_pattern(sol)


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
    # the riders never beat the complex restarts, and a proof never finds
    # more than it bounds; at an unreachable overlap of 2 it retires every
    # start box at once, keeping the riders' best it was seeded with
    rng = np.random.default_rng(67)
    for h in rng.integers(0, hc.N_CODES, size=6):
        sol = gm.solve_code(int(h))
        assert sol.real_overlap <= sol.overlap + 1e-12
        best, bound, _ = _search_one(sol.tensor, sol.overlap, sol.real_overlap)
        assert best <= sol.overlap + 1e-12 and best <= bound
        best, _, evaluations = _search_one(sol.tensor, 2.0, sol.real_overlap)
        assert evaluations == gm.START_GRID**2 and best >= sol.real_overlap


def test_real_optimum_matches_solver_on_real_witness_state():
    sol = gm.solve_code(hc.parse_edges("1234"))
    assert sol.overlap - gm.HIT_WINDOW <= sol.real_overlap <= sol.overlap + 1e-12
    assert np.array_equal(sol.real_witness.qubits.imag, np.zeros((4, 2)))
    assert gm.degeneracy_pattern(sol).evaluations == 0


# |0>, |1>, |+> and |->, the factors of the 256 real stabilizer products
_STABILIZER_STATES = np.array([[1, 0], [0, 1], [1, 1], [1, -1]]) / np.sqrt([[1], [1], [2], [2]])


def _sign_tensors(codes):
    """4 psi of each code as int64 (n, 2, 2, 2, 2), one axis per qubit, from
    its sign word: basis index mu has bit v - 1 set when vertex v reads 1."""
    bits = hc.sign_words(codes)[:, None] >> np.arange(hc.N_BASIS) & 1
    return (1 - 2 * bits.astype(np.int64)).reshape(-1, 2, 2, 2, 2).transpose(0, 4, 3, 2, 1)


def test_riders_are_the_top_real_stabilizer_products_of_every_code(orbit_table, solutions):
    # over all 32768 codes the integer scores are 256 |<Phi|psi>|^2 of a
    # float contraction with the unit products, index 64 q1 + 16 q2 + 4 q3
    # + q4; the riders are the RIDERS best of them, highest first and ties
    # by index, and each has a positive score
    for rep in orbit_table.reps:
        four_psi = sv.state_tensor(4 * sv.build_state(int(rep)))
        assert np.array_equal(_sign_tensors([rep])[0], four_psi), rep
    floats, top_scores = [], []
    u = _STABILIZER_STATES
    for chunk in np.array_split(np.arange(hc.N_CODES), 8):
        signs = _sign_tensors(chunk)
        scores = gm._stabilizer_scores(signs)
        assert scores.dtype.kind == "i"
        products = signs / 4.0
        for _ in range(hc.N_VERTICES):  # contract the last qubit, move its index to the front
            products = np.moveaxis(products @ u.T, -1, 1)
        floats.append(float(np.max(np.abs(scores - 256.0 * products.reshape(len(chunk), -1) ** 2))))
        order = np.lexsort((np.broadcast_to(np.arange(256), scores.shape), -scores))[:, :gm.RIDERS]
        factors = np.array(np.unravel_index(order, (4,) * hc.N_VERTICES)).transpose(1, 2, 0)
        assert np.array_equal(gm._riders(signs), u[factors])
        top_scores.append(np.take_along_axis(scores, order, axis=1))
    assert max(floats) < 1e-9
    assert np.concatenate(top_scores).min() > 0
    # on the 39 reps the solve keeps every rider real, and its best rebuilds
    # its overlap; the random restarts alone give the candidates
    for sol in solutions.values():
        assert not sol.real_witness.qubits.imag.any()
        assert _rebuilt_overlap(sol.tensor, sol.real_witness) == pytest.approx(sol.real_overlap, abs=1e-14)
        assert len(sol.candidates) == sol.restarts_hit <= gm.RESTARTS


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
        phi[:, i] = env.conj() / norm[:, None]
    return norm


def _random_tensor(rng):
    t = rng.normal(size=(2,) * 4)
    return t / np.linalg.norm(t)


def _assert_sweep_matches_reference(tensor, phi):
    # a stack of codes must match the reference, and the kernel, code by code;
    # phi and the restarts returned are laid out as the reference takes them
    ours, ref = _restart_major(phi), phi.copy()
    overlap = gm._sweep(tensor, ours)
    if phi.ndim == 4:
        ref_overlap = np.array([_reference_sweep(t, p) for t, p in zip(tensor, ref)])
        one_code = _restart_major(phi)
        assert np.array_equal(overlap, [gm._sweep(t, p) for t, p in zip(tensor, one_code)])
        assert np.array_equal(ours, one_code)
    else:
        ref_overlap = _reference_sweep(tensor, ref)
    ours = _restart_major(ours, back=True)
    assert ours.dtype == phi.dtype
    assert np.max(np.abs(ours - ref)) < 1e-13
    assert np.max(np.abs(overlap - ref_overlap)) < 1e-13
    return ours, overlap


@pytest.mark.parametrize("which", ["row 28", "random real"])
def test_sweep_matches_einsum_reference(which):
    rng = np.random.default_rng(71)
    if which == "row 28":
        tensor = sv.state_tensor(sv.build_state(13652))
    else:
        tensor = _random_tensor(rng)
    phi = gm._random_product_batch(rng, 16)
    for _ in range(5):
        phi, _ = _assert_sweep_matches_reference(tensor, phi)


def test_sweep_matches_einsum_reference_in_real_arithmetic():
    # real witnesses stay real, with no upcast
    rng = np.random.default_rng(73)
    tensor = sv.state_tensor(sv.build_state(13652))
    phi = rng.normal(size=(16, 4, 2))
    phi /= np.linalg.norm(phi, axis=2, keepdims=True)
    for _ in range(5):
        phi, overlap = _assert_sweep_matches_reference(tensor, phi)
        assert phi.dtype == overlap.dtype == np.float64


def _assert_sweep_raises(tensor, phi):
    """The sweep raises FloatingPointError on restarts that meet a zero norm,
    alone and as the second code of a two-code stack whose first code meets
    none, with no RuntimeWarning first and the restarts left as they were."""
    rng = np.random.default_rng(113)
    stacked = (np.stack((_random_tensor(rng), tensor)),
               np.stack((gm._random_product_batch(rng, len(phi)), phi)))
    for tensor, phi in ((tensor, phi), stacked):
        ours = _restart_major(phi)
        before = ours.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                gm._sweep(tensor, ours)
        assert np.array_equal(ours, before)


def test_sweep_raises_on_a_zero_environment():
    # |0000> has a zero environment for every qubit of a restart whose
    # first two qubits are exactly |1>
    tensor = np.zeros((2,) * 4)
    tensor[0, 0, 0, 0] = 1.0
    phi = gm._random_product_batch(np.random.default_rng(79), 4)
    phi[2, :2] = (0.0, 1.0)
    _assert_sweep_raises(tensor, phi)


def test_sweep_raises_when_the_first_environment_alone_is_zero():
    # for (|0000> + |1111>)/sqrt2 with qubit 2 at |1> and qubit 3 at |0>,
    # only qubit 1 sees a zero environment in the normalize-every-qubit
    # order, but it does not pass unnoticed: the sweep raises
    tensor = np.zeros((2,) * 4)
    tensor[0, 0, 0, 0] = tensor[1, 1, 1, 1] = math.sqrt(0.5)
    phi = gm._random_product_batch(np.random.default_rng(81), 4)
    phi[1, 1:3] = ((0.0, 1.0), (1.0, 0.0))
    _assert_sweep_raises(tensor, phi)


def _stepped_slacks(codes, monkeypatch):
    """The solutions of a batched solve of ``codes``, and each code's slack
    recomputed from the overlaps its steps return: from 0, the larger of
    the slack so far and -min(gain) at each iteration after the first."""
    code_of = {sv.state_tensor(sv.build_state(h)).tobytes(): h for h in codes}
    trail = {h: [] for h in codes}
    step = gm._extrapolate

    def recorded(tensor, phi, work=None):
        overlaps = step(tensor, phi, work)
        for t, row in zip(tensor, overlaps):
            trail[code_of[t.tobytes()]].append(row.copy())
        return overlaps

    monkeypatch.setattr(gm, "_extrapolate", recorded)
    sols = list(gm.solve_codes(codes))
    monkeypatch.undo()
    slacks = []
    for h, sol in zip(codes, sols):
        assert len(trail[h]) == sol.iterations, h
        slack = np.float64(0.0)
        for before, after in zip(trail[h], trail[h][1:]):
            slack = np.maximum(slack, -(after - before).min())
        slacks.append(slack)
    return sols, slacks


@pytest.mark.parametrize("codes", [(13652,), BATCH_MIX])
def test_monotone_slack_is_the_largest_drop_of_any_step(codes, monkeypatch):
    # the solve keeps each code's least gain elementwise and reduces it once,
    # as the code leaves; that is the per-iteration running maximum of
    # -min(gain), bit for bit, in a batch of one and in two batches
    sols, slacks = _stepped_slacks(codes, monkeypatch)
    assert [np.float64(sol.monotone_slack).tobytes() for sol in sols] == [s.tobytes() for s in slacks]


def test_sweep_pins_over_the_session_classification(records, graph_records, monkeypatch):
    # the solve calls _sweep through the module attribute, three times per
    # iteration (one extrapolation step), so a wrapper there (as the
    # benchmark's tracer installs it) counts exactly that many calls for
    # the iterations a record reports
    every = records + graph_records
    assert len(every) == 39 and sum(r.iterations for r in every) == 404
    assert next(r.iterations for r in records if r.rep == 13652) == 124
    calls = 0
    sweep = gm._sweep

    def counted(tensor, phi, work=None, overlaps=True):
        nonlocal calls
        calls += 1
        return sweep(tensor, phi, work, overlaps=overlaps)

    monkeypatch.setattr(gm, "_sweep", counted)
    iterations = gm.solve_code(13652).iterations
    assert iterations == 124 and calls == 3 * iterations


def test_contract_matches_einsum_reference():
    rng = np.random.default_rng(83)
    tensor = _random_tensor(rng)
    phi = gm._random_product_batch(rng, 16)
    ref = np.einsum("abcd,ra,rb,rc,rd->r", tensor, phi[:, 0], phi[:, 1], phi[:, 2], phi[:, 3])
    assert np.max(np.abs(gm._contract(tensor, _restart_major(phi)) - ref)) < 1e-13


def test_solver_counters_at_default_policy():
    """Iteration counts and stop reasons of two known solves.

    Row 28 (rep 13652) crawled through 4361 plain sweeps before the solve
    gained a finish, and 13654 (same orbit) stopped at the 5000-sweep cap;
    with a SQUAREM step as every iteration they stop after 124 and 124.
    These counts follow the rounding of the step: the same math in another
    summation order moves them between about 105 and 131.  A deliberate
    change to the solver's convergence is expected to change these counts.
    """
    row28 = gm.solve_code(13652)
    assert (row28.iterations, row28.stop, row28.converged) == (124, "tol", True)
    formerly_capped = gm.solve_code(13654)
    assert (formerly_capped.iterations, formerly_capped.stop) == (124, "tol")
    assert formerly_capped.converged is True


# exact best overlaps of the orbits whose plain alternating solve crawled:
# row 28 (3/4) and four graph-state orbits (1/2)
SLOW_REPS = {13652: 0.75, 820: 0.5, 292: 0.5, 308: 0.5, 816: 0.5}


def test_slow_orbits_converge_at_every_seed():
    for seed in range(32):
        solutions = gm.solve_codes(SLOW_REPS, gm.SolvePolicy(seed=seed))
        for (rep, exact), sol in zip(SLOW_REPS.items(), solutions, strict=True):
            assert sol.converged and sol.iterations <= 500, (rep, seed, sol.iterations)
            if seed == 0:
                assert abs(sol.overlap - exact) < 1e-12, (rep, sol.overlap)


@pytest.mark.slow
def test_every_code_converges_to_its_orbit_reps_overlap(orbit_table):
    # a query may name any code, so every one of the 2^15 solves at the
    # default policy stops on "tol" within the bound above, at the overlap
    # of its orbit's rep; since a zero norm raises, it also shows that no
    # code meets a zero environment.  Every code's reality is decided, with
    # 30,640 "R" and 2,128 "C" codes
    reps = orbit_table.reps[orbit_table.class_id].astype(int)
    rep_overlap = {rep: sol.overlap for rep, sol in zip(orbit_table.reps, gm.solve_codes(orbit_table.reps))}

    def checked():
        for h, (rep, sol) in enumerate(zip(reps, gm.solve_codes(range(len(reps))), strict=True)):
            assert sol.stop == "tol" and sol.iterations <= 500, (h, sol.stop, sol.iterations)
            assert abs(sol.overlap - rep_overlap[rep]) < 1e-11, (h, rep, sol.overlap)
            yield sol

    sols, realities = checked(), Counter()
    while chunk := list(itertools.islice(sols, 4096)):
        realities.update(pattern.reality for pattern in gm.degeneracy_patterns(chunk))
    assert realities == {"R": 30640, "C": 2128}


@pytest.mark.parametrize("real_restarts", [False, True])
def test_extrapolate_keeps_a_maximum_fixed(real_restarts):
    # a generic real tensor has a nondegenerate maximum, and at it the sweep
    # map has stopped moving, so the step leaves it where it is.  The solve's
    # own case is complex witnesses; real ones run the same kernel in real
    # arithmetic, to a maximum over real product states
    rng = np.random.default_rng(89)
    tensor = _random_tensor(rng)
    phi = gm._random_product_batch(rng, 16)
    if real_restarts:
        phi = phi.real / np.linalg.norm(phi.real, axis=2, keepdims=True)
    phi = _restart_major(phi)
    for _ in range(300):
        gm._sweep(tensor, phi)
    overlap = np.abs(gm._contract(tensor, phi))
    best = phi[..., np.argmax(overlap), None]
    at_best = best.copy()
    stepped = gm._extrapolate(tensor, at_best)
    assert np.max(np.abs(at_best - best)) < 1e-12
    assert abs(stepped[0] - overlap.max()) < 1e-12


def test_extrapolate_never_loses_ground():
    # from 256 random restarts and from each of the next 19 sweeps, the step
    # never ends below its start nor below two plain sweeps from it, though
    # unchecked it would from about the tenth sweep on; on some restart the
    # extrapolation gains on those two sweeps
    rng = np.random.default_rng(97)
    tensor = sv.state_tensor(sv.build_state(13652))
    phi = _restart_major(gm._random_product_batch(rng, 256))
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


def _poison(work, *viewed):
    """Fill every array a work area holds with NaN (True where boolean), but
    not its views of the arrays it was built on."""
    held = [work]
    while held:
        for value in vars(held.pop()).values():
            items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else [value]
            for x in items:
                if isinstance(x, gm._Qubits):
                    held.append(x)
                elif (isinstance(x, np.ndarray) and x.flags.writeable
                      and not any(np.shares_memory(x, v) for v in viewed)):
                    x.fill(np.nan)


@pytest.mark.parametrize("n", [1, gm.BATCH])
def test_one_work_area_serves_every_step(n):
    # a work area built once serves ten SQUAREM steps on a stack of n codes
    # from the solve's own starts: nothing a step allocates is as large as
    # phi (numpy's own caches filled by one step on a copy first), and a new
    # area filled with NaN before each step gives the same bits, so no step
    # reads a buffer before it writes it.  Code 0 leads each stack: its top
    # rider |++++> is a fixed point of the sweep, where v = 0 from step 2 on
    codes = BATCH_MIX[1:1 + n]
    tensors = np.array([sv.state_tensor(sv.build_state(h)) for h in codes])
    starts = [gm._random_product_batch(np.random.default_rng([0, h]), gm.RESTARTS) for h in codes]
    phi = _restart_major(np.concatenate((starts, gm._riders(_sign_tensors(codes))), axis=1))
    fresh, poisoned = phi.copy(), phi.copy()
    work = gm._Work(tensors, fresh)
    overlaps = np.empty((10, *phi.shape[:-3], phi.shape[-1]))
    gm._extrapolate(tensors, phi.copy())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(10):
            overlaps[k] = gm._extrapolate(tensors, fresh, work)
        grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grown < phi.nbytes
    for k in range(10):
        poisoned_work = gm._Work(tensors, poisoned)
        _poison(poisoned_work, poisoned, tensors)
        assert gm._extrapolate(tensors, poisoned, poisoned_work).tobytes() == overlaps[k].tobytes()
    assert poisoned.tobytes() == fresh.tobytes()
    assert not np.array_equal(fresh, phi)


def test_extrapolate_raises_when_the_extrapolated_qubit_is_zero(monkeypatch):
    # a sweep that halves every amplitude gives alpha = -2, and then
    # y = x0 - 2 alpha r + alpha^2 v is exactly 0.  It reports one overlap
    # throughout, so the overlap test alone would take the swept y: the
    # zero-norm check raises before y is rescaled, with no division by zero
    def halve(tensor, phi, work=None, overlaps=True):
        phi /= 2.0
        return np.ones(phi.shape[-1]) if overlaps else None

    monkeypatch.setattr(gm, "_sweep", halve)
    tensor = sv.state_tensor(sv.build_state(13652))
    phi = _restart_major(gm._random_product_batch(np.random.default_rng(109), 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            gm._extrapolate(tensor, phi)

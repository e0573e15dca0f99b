"""Geometric entanglement: distance to the closest product state.

E_g = -2 log2 max|<phi|psi>| over product states |phi>.  The maximizer
is found by alternating single-qubit updates from gm.RESTARTS random
starts at a fixed seed, each iteration one SQUAREM step of three sweeps;
the overlap sequence is monotone, so the only failure mode is a local
maximum, which the other restarts rule out.
"""

import numpy as np

from hgstate import geoment as gm
from hgstate import hypercore as hc

print("=== closest product state for the four-edge state ===")
h = hc.parse_edges("1234")
sol = gm.solve_code(h)
print(f"overlap {sol.overlap:.6f} -> E_g = {sol.eg:.6f}")
print(f"{sol.restarts_hit} of {gm.RESTARTS} restarts reached the optimum; "
      f"converged: {sol.converged} ({sol.stop} after {sol.iterations} iterations); "
      f"monotone slack {sol.monotone_slack:.1e}")
print("witness (one amplitude pair per qubit):")
for i, q in enumerate(sol.witness.qubits, start=1):
    print(f"  qubit {i}: ({q[0]:+.4f}, {q[1]:+.4f})")

print("\n=== how the near-best witnesses group ===")
pat = gm.degeneracy_pattern(sol)
print(f"pattern {pat.label!r}, witness field {pat.reality}, census {pat.census}")
print("(groups share qubit factors; the label lists group sizes)")

print("\n=== a state whose optimal witness is genuinely complex ===")
h11 = hc.parse_edges("1234,124,134,234,123")  # in the orbit of row 11
rec11 = gm.degeneracy_pattern(gm.solve_code(h11))
print(f"edges 1234,124,134,234,123: pattern {rec11.label!r}, field {rec11.reality}")

print("\n=== the symmetric fixed-point iteration ===")
print("for the triangle state the witness ratio z = y/x obeys")
print("z -> (1 + 2z - z^2)/(1 + z)^2, with a cubic fixed point:")
rng = np.random.default_rng(1)
for _ in range(3):
    z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    try:
        z = gm.symmetric_z_iteration(z0)
    except gm.IterationDiverged:
        print(f"  start {z0:+.2f}: falls into the pole at z = -1")
        continue
    print(f"  start {z0:+.2f}: z = {z.real:.12f} "
          f"(residual {abs(gm.symmetric_cubic_residual(z)):.1e})")
print(f"closed form root: {gm.symmetric_z_closed_form():.12f}")
print(f"induced E_g for the triangle state: {gm.triangle_eg_closed_form():.12f}")

print("\n=== closed forms vs the iterative solver ===")
for n, exact in sorted(gm.closed_form_values().items())[:5]:
    print(f"  class {n:>2}: exact {exact:.8f}")

print("\n=== the best real product state, from real stabilizer-product starts ===")
print(f"beside its {gm.RESTARTS} random starts, the solve ascends the {gm.RIDERS} products of")
print("|0>, |1>, |+> and |-> that overlap the state most; a real state keeps them real")
print(f"R: the best of them comes within {gm.HIT_WINDOW:g} of the complex optimum")
print("C: otherwise, with real qubits 1 and 2 fixed, the best real qubits 3 and 4 are")
print("the top singular vectors of a real 2x2 matrix, and a branch-and-bound over the two")
print(f"angles proves every real product state at least {gm.REAL_GAP:g} below the optimum")
named = (("1234", "1234"), ("row 7", "1234,12,13,23"))
sols = [gm.solve_code(hc.parse_edges(edges)) for _, edges in named]
for (name, _), sol, pat in zip(named, sols, gm.degeneracy_patterns(sols)):
    print(f"  {name:>5}: overlap {sol.overlap:.6f}, best real {sol.real_overlap:.6f}, "
          f"reality {pat.reality} ({pat.evaluations} proof evaluations)")

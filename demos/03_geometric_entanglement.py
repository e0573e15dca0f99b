"""Geometric entanglement: distance to the closest product state.

E_g = -2 log2 max|<phi|psi>| over product states |phi>.  The maximizer
is found by alternating single-qubit updates from many random starts;
the overlap sequence is monotone, so the only failure mode is a local
maximum, which extra restarts rule out.
"""

import numpy as np

from hgstate import geoment as gm
from hgstate import hypercore as hc
from hgstate import statevec as sv

print("=== closest product state for the four-edge state ===")
h = hc.parse_edges("1234")
sol = gm.solve_code(h)
print(f"overlap {sol.overlap:.6f} -> E_g = {sol.eg:.6f}")
print(f"{sol.restarts_hit} of 64 restarts reached the optimum; "
      f"converged: {sol.converged}; monotone slack {sol.monotone_slack:.1e}")
print("witness (one amplitude pair per qubit):")
for i, q in enumerate(sol.witness.qubits, start=1):
    print(f"  qubit {i}: ({q[0]:+.4f}, {q[1]:+.4f})")

print("\n=== how the near-best witnesses group ===")
pat = gm.degeneracy_pattern(sol)
print(f"pattern {pat.label!r}, witness field {pat.reality} "
      f", census {pat.census}")
print("(groups share qubit factors; the label lists group sizes)")

print("\n=== a state whose optimal witness is genuinely complex ===")
h7 = hc.parse_edges("1234,124,134,234,123")
rec7 = gm.degeneracy_pattern(gm.solve_code(h7))
print(f"edges 1234,124,134,234,123: pattern {rec7.label!r}, field {rec7.reality}")

print("\n=== the symmetric fixed-point iteration ===")
print("for the triangle state the witness ratio z = y/x obeys")
print("z -> (1 + 2z - z^2)/(1 + z)^2, with a cubic fixed point:")
rng = np.random.default_rng(1)
for _ in range(3):
    z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    z = gm.stable_symmetric_z(seed=int(rng.integers(1 << 30)))
    print(f"  start near {z0:+.2f}: z = {z.real:.12f} "
          f"(residual {abs(gm.symmetric_cubic_residual(z)):.1e})")
print(f"closed form root: {gm.symmetric_z_closed_form():.12f}")
print(f"induced E_g for the triangle state: {gm.triangle_eg_closed_form():.12f}")

print("\n=== closed forms vs the iterative solver ===")
for n, exact in sorted(gm.closed_form_values().items())[:5]:
    print(f"  class {n:>2}: exact {exact:.8f}")

print("\n=== independent cross-check on a coarse real grid ===")
s = sv.build_state(h)
grid = gm.real_grid_eg(s, points=24)
print(f"grid maximum E_g {grid:.7f} vs solver {sol.eg:.7f} "
      f"(grid can only overestimate)")

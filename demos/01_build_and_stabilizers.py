"""Build four-qubit hypergraph states and check their stabilizers.

A hypergraph on vertices {1,2,3,4} is encoded as a 15-bit integer with
one bit per possible hyperedge.  The state applies a multi-controlled-Z
gate for every edge to |+>|+>|+>|+>, so each amplitude is +1/4 or -1/4
and the sign pattern determines the hypergraph uniquely.
"""

import numpy as np

from hgstate import hypercore as hc
from hgstate import statevec as sv

print("=== building a state from an edge list ===")
h = hc.parse_edges("1234,123")
print(f"edges {hc.format_edges(h)!r} -> code {h}")

s = sv.build_state(h)
for mu in range(hc.N_BASIS):
    print(f"  |{hc.basis_string(mu)}>  {s[mu]:+.2f}", end="")
    if mu % 4 == 3:
        print()

print("\n=== the sign pattern is the hypergraph ===")
signs = hc.signs_from_hypergraph(h)
recovered = hc.hypergraph_from_signs(signs)
print(f"negative amplitudes at {[hc.basis_string(m) for m in np.nonzero(signs)[0]]}")
print(f"recovered code {recovered} (round trip {'ok' if recovered == h else 'BROKEN'})")

print("\n=== local X gates move edges around ===")
print("X on vertex 4 toggles the neighborhood of 4:")
hx = hc.apply_x(h, 4)
print(f"  {hc.format_edges(h)!r} -> {hc.format_edges(hx)!r}")
print("standardizing absorbs the three-edge into the four-edge:")
print(f"  standardize({hc.format_edges(h)!r}) = {hc.format_edges(hc.standardize(h))!r}")

print("\n=== stabilizers ===")
print("each vertex i contributes K_i = X_i * (controlled-Z over its neighborhood)")
unfixed, noncommuting = sv.stabilizer_defects([h])
for i in hc.VERTICES:
    nbrs = ",".join(hc.format_edges(hc.code_of_edges([e])) for e in hc.neighborhood(h, i)) or "(none)"
    print(f"  K_{i}: neighborhood {{{nbrs}}}, K|H> = |H>  {'BROKEN' if unfixed[i - 1, 0] else 'ok'}")
for (i, j), bad in zip(sv.PAIRS, noncommuting[:, 0]):
    print(f"  K_{i} K_{j} = K_{j} K_{i}  {'BROKEN' if bad else 'ok'}")
print(f"all stabilizer and commutation checks: {sv.verify_stabilizers(h)}")

print("\n=== the same checks over all 32768 codes at once ===")
unfixed, noncommuting = sv.stabilizer_defects(hc.ALL_CODES)
print(f"  states not fixed by some K_i: {int(unfixed.any(axis=0).sum())}")
print(f"  states with a non-commuting pair: {int(noncommuting.any(axis=0).sum())}")

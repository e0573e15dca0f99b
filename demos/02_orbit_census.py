"""Enumerate the orbits of all 32768 sign patterns under local moves.

The group is generated by local X and Z on each vertex plus the 24
vertex permutations (order 16*16*24 = 6144 acting on codes); two
codes in one orbit describe locally equivalent states.  A Z move only
toggles a loop, and the X moves and permutations map loops to loops, so
every orbit is a union of whole cosets of the Z moves.  Enumeration is
therefore exact as a label-propagation sweep over the 2^11 = 2048
loop-free codes, one per coset, and the whole partition takes about a
millisecond.
"""

import time

import numpy as np

from hgstate import hypercore as hc
from hgstate import orbits as ob

t0 = time.perf_counter()
table = ob.enumerate_orbits()
print(f"partitioned {hc.N_CODES} codes into {table.n_orbits} orbits "
      f"in {time.perf_counter() - t0:.3f}s")

print("\n=== census by standardized rank ===")
for rank, count in sorted(ob.rank_census(table).items(), reverse=True):
    print(f"  rank {rank}: {count:>6} codes")

print("\n=== the 39 orbits ===")
print(f"{'rep edges':>18}  {'size':>5}  {'rank':>4}  {'m':>3}")
order = np.argsort(table.reps)
for k in order:
    rep = int(table.reps[k])
    rec = ob.orbit_of(rep, table)
    print(f"{hc.format_edges(hc.standardize(rep)) or '(none)':>18}  "
          f"{rec.size:>5}  {rec.rank:>4}  {rec.m:>3}")

sizes = table.sizes
print(f"\nsizes sum to {int(sizes.sum())}; every size divides the group "
      f"order {ob.GROUP_ORDER}: {all(ob.GROUP_ORDER % int(x) == 0 for x in sizes)}")

print("\n=== orbit membership of a worked example ===")
for text in ("1234,123", "1234", "12,34", ""):
    rec = ob.orbit_of(hc.parse_edges(text), table)
    print(f"  {text or '(empty)':>10}: rep {rec.rep:>5}, size {rec.size:>4}, rank {rec.rank}")

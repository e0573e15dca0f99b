"""Reproduce the full classification of four-qubit hypergraph states.

Every orbit representative gets a signature (geometric entanglement,
bipartite entropy multisets); rank-4 and rank-3 signatures are matched
against the published reference rows, and the remaining orbits are the
graph-state classes.  The whole run takes a few seconds.
"""

import time

from hgstate import classifier as cf
from hgstate import orbits as ob

t0 = time.perf_counter()
table = ob.enumerate_orbits()
records, graphs = cf.classify_all(table=table)
print(f"classified {len(records)} hypergraph classes and {len(graphs)} "
      f"graph-state classes in {time.perf_counter() - t0:.1f}s\n")

print(f"{'row':>3} {'edges':>16} {'m':>3} {'GE':>7} {'exact':>10} "
      f"{'BE2 multiset':>22} {'D':>7} {'R/C':>3}")
for r in records:
    exact = f"{r.closed_form:.6f}" if r.closed_form is not None else ""
    be2 = " ".join(f"{v:.4f}" for v in sorted(r.profile.be2, reverse=True))
    print(f"{r.row:>3} {cf.hc.format_edges(r.std):>16} {r.m:>3} "
          f"{r.ge:>7.4f} {exact:>10} {be2:>22} "
          f"{r.pattern.label:>7} {r.pattern.reality:>3}")

print("\ngraph-state classes (rank <= 2 after standardizing):")
for g in graphs:
    print(f"  rep {cf.hc.format_edges(g.std) or '(none)':>12} "
          f"size {g.orbit_size:>4}  m {g.m:>2}  GE {g.ge:.4f}")

print("\n=== comparison with the printed degeneracy/reality columns ===")
comp = cf.reference_comparison(records)
agree = sum(c["pattern_match"] for c in comp)
print(f"reality column: {sum(c['reality_match'] for c in comp)}/28 match")
print(f"degeneracy column: {agree}/28 match; divergent rows:")
for c in comp:
    if not c["pattern_match"]:
        print(f"  row {c['row']:>2}: computed {c['computed_pattern']!r} "
              f"vs printed {c['printed_pattern']!r}")
print("(the grouping pattern depends on which orbit representative is "
      "solved; see the classifier tests)")

print("\n=== machine-readable report ===")
text = cf.emit_report(records, graphs, "json", seed=0)
print(f"json report: {len(text)} bytes, byte-identical across runs "
      "with the same seed and policy")

"""Four-qubit hypergraph states: construction, local-Pauli orbits, and
entanglement classification.

The code space is tiny (2**15 states), which lets everything be exact and
exhaustive: hypergraphs are 15-bit integers, local moves are precomputed
permutation tables, and the 28 locally inequivalent hypergraph classes are
recovered by measuring each orbit's canonical representative.  Import the
submodules (``hypercore``, ``orbits``, ``statevec``, ``geoment``,
``classifier``, ``cli``) directly.
"""

__version__ = "0.1.0"

"""Nested matrix algebras of a pointed graph.

Given a finite connected simple graph with a distinguished base vertex,
five unital self-adjoint matrix algebras sit in a chain: the adjacency
algebra, the algebra that also adjoins the base-vertex idempotent, the
Terwilliger algebra of the distance partition, the algebra of stabilizer
orbit idempotents, and the centralizer algebra of the base-vertex
stabilizer.  This package builds explicit exact bases for all five,
computes their Wedderburn decompositions, and scans graph6 corpora for
graphs where consecutive algebras differ.
"""

from .graphs import (
    Graph,
    DistancePartition,
    PaleyConstruction,
    parse_graph6,
    write_graph6,
    gen_path,
    gen_star,
    gen_cycle,
    gen_paley,
    gen_delta,
    bfs_distance_partition,
)
from .groups import (
    Perm,
    PermGroup,
    OrbitPartition,
    OrbitalPartition,
    automorphism_group,
    stabilizer,
    paley_stabilizer_generators,
    vertex_orbits,
    orbitals,
    orbital_matrices,
)
from .linalg import SpanBasis, algebra_closure, center_basis
from .algebras import (
    AlgebraBasis,
    idempotent_for_set,
    build_T,
    chain_with_algebras,
    corner,
    is_commutative,
    principal_row_dim,
    pendant_reduction_check,
)
from .structure import (
    WedderburnType,
    WedderburnDecomposition,
    wedderburn_decompose,
    block_of_idempotent,
    is_thin,
)
from .pipeline import ScanRecord, classify_graph, scan_corpus, emit_report

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

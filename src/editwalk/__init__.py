"""editwalk: edit-driven Markov chains on subgraphs of a host graph.

Simulation of per-edge and compound-edit update processes, plus an exact
desk-scale spectral engine: transition matrices, stationary laws,
closed-form eigenvectors, spectra, mixing bounds, and hitting/commute times.
"""

__version__ = "0.1.0"

from .hostgraph import (
    EdgeSet,
    HostGraph,
    complete_bipartite,
    complete_graph,
    forest_flags,
    from_edge_list,
    host_from_json,
    host_to_json,
)
from .lattice import (
    SpectrumReport,
    SupportLattice,
    closure,
    multiplicities,
)
from .process import (
    Trajectory,
    WeightedEdits,
    block_probabilities,
    chung_lu_probabilities,
    erdos_renyi_probabilities,
    intersection_host,
    intersection_weights,
    make_rng,
    moran_weights,
    simple_edit_weights,
    simulate,
)
from .spectral import (
    TransitionMatrix,
    brown_tv_bound,
    build_chain,
    commute_time,
    eigenvalues_simple,
    hitting_time_closed,
    intersection_mixing_bound,
    mixing_bound_compound,
    mixing_bound_simple,
    moran_complete_mixing_bound,
    phi,
    recurrent_class,
    simple_tv_bound,
    spectrum,
    stationary_closed_form,
    stationary_faces,
    to_dot,
    tv_decay,
)

__all__ = [name for name in dir() if not name.startswith("_")]

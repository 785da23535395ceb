"""Structures for hypergraph regularity: uniform hypergraphs, layered
partition families with integer-vector addressing, (eps, d)-regularity
checking, induced-copy predictions, constructive partition transforms, and
a vertex-sampling experiment harness."""

from .addresses import AddressVector, address_space, leq, restrictions
from .counting import ICBreakdown, ic, ic_family, ic_sigma, count_sigma_induced
from .errors import CapabilityError, ConstructionError, InputError
from .hypergraph import (
    Complex,
    KGraph,
    cliques,
    count_induced,
    count_induced_family,
    crossing_sets,
    induce,
    kgraph_from_text,
    kgraph_to_text,
    sym_diff_distance,
)
from .partitions import (
    AxiomReport,
    PartitionFamily,
    RefinementReport,
    VertexClassGraph,
    build_family,
    check_family_axioms,
    family_from_text,
    family_refines,
    family_to_text,
    nu_refines,
)
from .regularity import (
    DensityFunction,
    RegularityInstance,
    RegularityVerdict,
    check_complex_regular,
    check_equitable_family,
    check_instance_witness,
    check_regular_exhaustive,
    check_regular_sampled,
    density_distance,
    instance_from_text,
    instance_to_text,
    relative_density,
)
from .sampling import (
    TransferStats,
    check_edge_concentration,
    induce_family,
    run_transfer_experiment,
    sample_vertices,
)
from .transforms import (
    PlantSpec,
    equalize,
    perturb_family,
    plant,
    reconstruct,
    refine_family,
)

__version__ = "0.1.0"

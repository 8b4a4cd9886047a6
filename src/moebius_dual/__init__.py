"""Exact zeta/Moebius duality on finite posets, coarse-graining, and
set-valued exchangeable population models, all in rational arithmetic."""

from .cannings import (
    MonteCarloResult,
    MultiAllelicKernels,
    OffspringLaw,
    coarse_backward_moment_formula,
    coarse_forward_direct,
    coarsen_multiallelic,
    exact_coarse_duality_value,
    hypergeometric_inverse,
    hypergeometric_matrix,
    monte_carlo_duality,
    moran_law,
    multiallelic_kernels,
    wright_fisher_law,
)
from .coarse_graining import (
    CoarseResult,
    CoarseSetMatrices,
    EquivalenceRelation,
    CoarseDualityResult,
    cardinality_relation,
    check_compatibility,
    coarse_partition_matrices,
    coarse_set_matrices,
    coarse_set_matrices_enumerated,
    skeleton_relation,
    coarse_duality_pipeline,
)
from .duality import (
    CertificateReport,
    ConeReport,
    DualityVariant,
    Kernel,
    RepresentingMeasure,
    StrongConditionReport,
    cone_membership,
    h_dual,
    h_transform,
    invariant_distribution,
    positivity_certificate,
    representing_measure,
    strong_condition_check,
    support_implication_check,
)
from .errors import (
    IncompatibleMatrix,
    InvalidOffspringLaw,
    InvalidParameter,
    InvalidSkeleton,
    MoebiusDualError,
    NonRationalEntry,
    NonpositiveH,
    NotComparable,
    NotExchangeable,
    NotIrreducible,
    PartialOrderViolation,
    SingularH,
    SingularMatrix,
    SizeOverflow,
    VerificationFailure,
)
from .lattices import (
    Partition,
    PartitionLattice,
    Skeleton,
    SubsetLattice,
    bell_number,
    enumerate_partitions,
    partition_lattice,
    partition_moebius_closed_form,
    skeleton,
    skeletons_of,
    subset_lattice,
)
from .poset import (
    FinitePoset,
    ZetaPair,
    build_poset,
    moebius_matrix,
    product_poset,
    zeta_matrix,
)
from .rational import RationalMatrix, format_fraction, parse_fraction

__version__ = "0.1.0"

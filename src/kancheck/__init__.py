"""Exhaustive Kan-condition certification for finite truncated (bi)simplicial sets.

The package builds finite simplicial and bisimplicial sets from groups,
groupoids and double groupoids, checks every simplicial law exhaustively,
searches horns on raw table ids, and certifies how diagonal and pointwise
fibration conditions relate.  A check that fails carries a
:class:`FillCertificate` naming its unfillable horn by ids, which a rebuilt
report re-verifies.
"""

from .bisimplicial import (
    BisimplicialMap,
    TruncatedBisimplicialSet,
    column,
    column_map,
    diagonal,
    diagonal_map,
    point_bisimplicial,
    product,
    row,
    row_map,
    tensor,
    to_point_bimap,
    transpose,
    transpose_map,
    validate_bisimplicial_identities,
)
from .doublegroupoid import (
    DoubleGroupoid,
    Square,
    double_nerve,
    double_nerve_indexed,
    group_pair_double_groupoid,
    trivial_double_groupoid,
)
from .errors import (
    CompositionError,
    InternalInvariantError,
    RejectedInput,
    TruncationError,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    group_from_permutations,
    group_from_table,
    is_subgroup,
    product_set,
    subgroup_group,
    subgroup_products_distinct,
    symmetric_group_preset,
)
from .groupoids import (
    FiniteGroupoid,
    discrete_groupoid,
    eg_construction,
    eg_cover,
    nerve,
    nerve_indexed,
    one_object_groupoid,
)
from .kan import (
    FibrationReport,
    FillCertificate,
    brute_force_fill,
    check_kan_fibration,
    check_kan_to_point,
    check_trivial_fibration_to_point,
)
from .ordinal import (
    Degeneracy,
    Face,
    OrdinalMap,
    SimplicialOperator,
    check_basic_identity,
    check_power_identity,
    compose_ordinal,
    factorize,
)
from .pointwise import (
    PointwiseSweepReport,
    verify_pointwise_fillers,
    verify_pointwise_to_point,
)
from .simplicial import (
    IdentityReport,
    Simplex,
    SimplicialMap,
    TruncatedSimplicialSet,
    pi0,
    point,
    to_point_map,
    validate_simplicial_identities,
)

__version__ = "0.1.0"

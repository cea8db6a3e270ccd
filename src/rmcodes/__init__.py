"""Rank-metric, matrix, and lifted subspace codes over finite-field towers.

Exact construction of Gabidulin codes, basis expansion between the vector
and matrix pictures, lifting to constant-dimension subspace codes, and the
full (semi-)linear equivalence and automorphism machinery for both code
species, all at desk scale with brute-force oracles alongside the analytic
results.
"""

from .errors import (
    AmbientMismatch,
    BadParams,
    BadPivots,
    DependentVector,
    DivisionByZero,
    DoesNotDivide,
    IllegalTranspose,
    MixedPivots,
    NonlinearCode,
    NotInSpan,
    NotPrime,
    NotPrimitiveModulus,
    ReducibleModulus,
    RmcodesError,
    ShapeMismatch,
    Singular,
    TooLarge,
    TowerMismatch,
    UnknownExample,
)
from .fields import (
    FieldElement,
    FieldTower,
    IndependentTuple,
    OrderedBasis,
    find_normal_element,
    is_normal,
    make_tower,
    normal_basis_from,
    parse_element,
    parse_field_spec,
    power_basis,
)
from .matrices import (
    Mat,
    RrefResult,
    element_order,
    enumerate_gl,
    gl_order,
    gl_rank,
    inverse,
    rank,
    rref,
)
from .expansion import (
    compress,
    coords,
    expand,
)
from .codes import (
    GabidulinCode,
    MatrixCode,
    RankMetricCode,
    compress_code,
    expand_code,
    gabidulin,
    matrix_code,
    min_rank_distance,
    rank_weight,
)
from .subspaces import (
    DistanceLawReport,
    Subspace,
    SubspaceCode,
    lift,
    subspace_distance,
    unlift,
    verify_distance_law,
)
from .equivalence import (
    EquivResult,
    MatMap,
    RmMap,
    are_equivalent,
    enumerate_mat_maps,
    enumerate_rm_maps,
    equivalence_maps,
    group_order,
    map_index,
    maps_onto,
    mat_apply,
    mat_map,
    rm_apply,
    rm_map,
    rm_to_mat,
)
from .automorphisms import (
    AutGroup,
    StabilizerDegree,
    m_beta,
    mat_aut_brute,
    mat_aut_subgroup,
    rm_aut_brute,
    rm_aut_group,
    stabilizer_degree,
)
from .verify import EXAMPLE_IDS, ExampleReport, run_example

__version__ = "0.1.0"

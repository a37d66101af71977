"""Independence and rigidity of bar-joint frameworks in d-dimensional l_q spaces."""

from .geometry import (
    DEFAULT_Q_GAP,
    IllPositionedError,
    LqSpace,
    Placement,
    RigidityMatrix,
    lq_norm,
    rigidity_matrix,
    signed_pow,
    support_row,
)
from .graphs import (
    Graph,
    SparsityParams,
    complete_graph,
    edge_addable,
    f_count,
    is_sparse,
    is_tight,
    path_graph,
    wheel_graph,
)
from .operations import (
    OpRecord,
    apply_record,
    brace,
    cone,
    henneberg_generate,
    henneberg_replay,
    one_extension,
    one_reduce,
    one_reduction_search,
    random_count_sparse,
    random_degree_bounded_sparse,
    substitute,
    vertex_split,
    zero_extension,
)
from .rank import (
    DEFAULT_REL_TOL,
    DEFAULT_TRIALS,
    RankResult,
    Verdict,
    cokernel_basis,
    max_rank_sample,
    max_rank_samples,
    numerical_rank,
    sample_placement,
    verdict,
)
from .surfaces import (
    PROJECTIVE_PLANE,
    SPHERE,
    SurfaceTriangulation,
    base_complex,
    generate_triangulation,
    link_cycle,
    topological_vertex_split,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

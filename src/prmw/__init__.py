"""Reed-Muller and projective Reed-Muller codes over small prime fields:
construction, exact weight enumeration, closed-form weight formulas and
finite-geometry cross-checks."""

import os

# one BLAS thread: a second only spins idle here (no effect once numpy is loaded)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .codes import (
    PRM,
    RM,
    Code,
    CodeParams,
    build,
    code_to_bitdump,
    code_to_json,
    rref,
)
from .errors import BudgetExceeded, DomainError
from .formulas import (
    w1_prm,
    w1_rm,
    w2_prm_binary,
    w2_rm_binary,
    w2_rm_candidates,
)
from .geometry import (
    Subspace,
    check_subspace_bounds,
    enumerate_subspaces,
    find_avoiding_subspace,
    find_avoiding_subspace_at_least,
    gaussian_binomial,
    projective_support,
    subspace_from_forms,
    zero_set_is_hyperplane_union,
)
from .gfp import GF
from .points import affine_points, projective_points
from .poly import Poly, parse_poly
from .weights import (
    WeightReport,
    Witness,
    codeword_support,
    naive_weight_counts,
    weight_report,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Code",
    "CodeParams",
    "DomainError",
    "GF",
    "PRM",
    "Poly",
    "RM",
    "Subspace",
    "WeightReport",
    "Witness",
    "affine_points",
    "build",
    "check_subspace_bounds",
    "code_to_bitdump",
    "code_to_json",
    "codeword_support",
    "enumerate_subspaces",
    "find_avoiding_subspace",
    "find_avoiding_subspace_at_least",
    "gaussian_binomial",
    "naive_weight_counts",
    "parse_poly",
    "projective_points",
    "projective_support",
    "rref",
    "subspace_from_forms",
    "weight_report",
    "w1_prm",
    "w1_rm",
    "w2_prm_binary",
    "w2_rm_binary",
    "w2_rm_candidates",
    "zero_set_is_hyperplane_union",
]

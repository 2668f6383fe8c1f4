"""Exact verification kernel for the twisted osp(1|2) matrix constructions.

Subpackages:

* scalar     -- rational-function field in s (q = s**2), theta, xi
* gmatrix    -- graded matrices, Koszul-signed tensor products, YBE checks
* reps       -- spin-j modules of osp(1|2) and the FRT generators
* matrices   -- the explicit 9x9 R-matrices and twist factors
* coproducts -- coproduct maps, twist conjugation, Hopf-level checks
* phi        -- order-by-order solver for the odd twist series
* cli        -- command-line front end
"""

from .scalar import (
    ONE,
    ZERO,
    Scalar,
    ScalarError,
    inv,
    limit_at_one,
    omega,
    q_var,
    rational,
    s_var,
    substitute,
    theta_var,
    xi_var,
)
from .gmatrix import (
    GradedMatrix,
    MatrixError,
    check_gybe,
    conjugate_flip,
    embed,
    exp_nilpotent,
    from_json_dict,
    gflip,
    gkron,
    inverse,
    kron_parity,
    log_unipotent,
    to_json_dict,
)
from .reps import (
    Representation,
    RepresentationError,
    check_lt_relations,
    fundamental_rep,
    irrep,
)
from .matrices import (
    check_factorization,
    check_triangular,
    contract_r,
    f_jordanian,
    f_super_fund,
    kr_rmatrix,
    m_matrix,
    named_matrix,
    transform_r,
    x_entries,
)
from .coproducts import (
    CLASSICAL,
    COPRODUCTS,
    JORDANIAN,
    Q_DEFORMED,
    SUPER_JORDANIAN,
    check_cocycle_jordanian,
    check_coassociativity_jordanian,
    check_homomorphism,
    check_l_coproducts,
    check_qcoproduct_xplus,
    check_r_intertwines,
    frt_check,
    twist_conjugate,
)
from .phi import (
    PhiSeries,
    build_f_super,
    check_intertwining_s,
    compute_dsj_vminus,
    f1_series_coeffs,
    solve_phi,
)

__version__ = "0.1.0"

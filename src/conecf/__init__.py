"""Continued fractions on the cone of positive definite symmetric matrices."""

from .jordan import (
    ConeElement,
    ConeMembershipError,
    EigenConvergenceError,
    Spectrum,
    SymMatrix,
    cone,
    frob_norm,
    from_json_raw,
    identity,
    in_cone,
    inner,
    inverse,
    jordan_product,
    power,
    quad_rep_apply,
    rel_residual,
    spectral_decomposition,
    to_json_dict,
    zero,
)
from .division import MODES, pi_apply
from .contfrac import (
    DEPTH_CAP,
    CFSequence,
    ConvergentTrace,
    bracket,
    cf_general,
    cf_ordinary,
    f_closed,
    f_direct,
    jump_direct,
    q_apply,
    to_ordinary,
    trace_cf,
    u_vec,
    w_seq,
)
from .randmat import (
    Beta2Params,
    RngStream,
    beta2_log_density,
    beta_omega,
    gamma_omega,
    sample_beta2,
    sample_wishart,
    split_stream,
)
from .harness import (
    ExperimentConfig,
    run_convergence_experiment,
    run_identity_suite,
)

__version__ = "0.1.0"

"""Finite-alphabet workbench for two-parameter Renyi information measures,
their variational certificates, and the strong-converse exponents of
privacy amplification and soft covering."""

__version__ = "0.1.0"

from .dist import (
    CondPmf,
    JointPmf,
    Pmf,
    condition_on_x,
    condition_on_y,
    from_json,
    iid_power,
    joint_from_channel,
    marginal_x,
    marginal_y,
    product,
    to_json,
    validate,
)
from .exponents import (
    ExponentConfig,
    ExponentResult,
    Rate,
    one_shot_pa_lower_bound,
    pa_dual_exponent,
    pa_exponent,
    sc_dual_exponent,
    sc_exponent,
    sc_one_shot_bound,
)
from .measures import (
    MeasureResult,
    cond_entropy_variant,
    cond_renyi_divergence,
    mutual_info_variant,
    relative_entropy,
    renyi_divergence,
    renyi_entropy,
    shannon_cond_entropy,
    shannon_entropy,
    shannon_mi,
)
from .orders import ExtOrder, OrderPair
from .properties import REGISTRY, run_properties
from .protocol import (
    BoundCheck,
    HashSpec,
    SimRecord,
    check_one_shot_sc_bound,
    m_from_rate,
    pa_apply_hash,
    pa_divergence,
    pa_min_divergence_exhaustive,
    pa_universal_family_divergence,
    sc_expected_divergence_exact,
    sc_expected_divergence_mc,
)
from .simplex_opt import (
    OptReport,
    SimplexObjective,
    SolverConfig,
    minimize_over_joint,
    variational_h,
    variational_i,
)
from .two_param import TwoParamResult, h_tilde, i_tilde

__all__ = [name for name in dir() if not name.startswith("_")]

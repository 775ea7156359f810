"""hcbounds: hypothesis-class-dependent consistency bounds for surrogate losses.

Numerical library and CLI for margin-loss calibration analysis: pointwise
surrogate losses and their worst-case counterparts, attainable score ranges
of bounded hypothesis classes, closed-form minimal conditional risks with an
independent grid oracle, estimation-error transforms and inverses,
minimizability gaps, assembled bound reports, and reproducible Monte Carlo
tightness sweeps.
"""

from .losses import (
    ZERO_ONE,
    LossFamily,
    MarginLoss,
    eval_margin_loss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)
from .hypotheses import (
    HypothesisClass,
    HypothesisSpec,
    LinearHypothesis,
    attainable_adversarial_range,
    score_range,
)
from .conditional import (
    ConditionalPoint,
    Constraint,
    OracleInfeasibleError,
    brute_force_inf,
    min_conditional_risk,
    min_conditional_risk_adversarial,
)
from ._runtime import thread_cap
from .transforms import (
    Direction,
    NegativeResultError,
    PiecewiseTransform,
    Segment,
    invert_numerically,
    select_transform,
    transform,
    transform_inverse,
)
from .distributions import (
    Atom,
    Component,
    LabeledDistribution,
    QuadratureError,
    TruncNormal,
    dist_from_json_dict,
    dist_to_json_dict,
    expectation,
    preset_distribution,
    sample,
    sect7_adversarial,
    sect7_nonadversarial,
)
from .bounds import (
    BestInClass,
    BoundReport,
    Exact,
    MonteCarlo,
    NegativeResultDemo,
    Target,
    PsiBoundCheck,
    assemble_bound,
    best_in_class_risk,
    negative_result_demo,
    risk,
    surrogate_split,
    verify_psi_bound_discrete,
)
from .experiments import (
    SweepConfig,
    emit_transform_curves,
    run_adversarial_sweep,
    run_nonadversarial_sweep,
)
from .oracle_check import OracleCheckRow, run_oracle_checks

__version__ = "0.1.0"

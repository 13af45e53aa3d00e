"""skewlab: Monte Carlo construction and verification of skew Brownian motion.

The package builds skew Brownian motion by flipping the excursions of a
driving path with independent Bernoulli signs and verifies every identity the
construction rests on at desk scale: pathwise residuals (Tanaka, balayage,
skew SDE), statistical martingale drift tests under a signed measure, and
distributional tests against the closed-form skew density and the skew random
walk.
"""

__version__ = "0.1.0"

from .excursion import (
    ExcursionSet,
    decompose_excursions,
    dilate,
    last_zero_curve,
)
from .grid_paths import (
    SamplePath,
    SeedSpec,
    TimeGrid,
    make_grid,
    refine_bridge,
    sample_brownian,
)
from .localtime import (
    ResidualReport,
    identity_residual,
    ito_sum,
    local_time,
)
from .signed_measure import (
    DecompositionRows,
    HypothesisNotMetError,
    InsufficientSamplesError,
    ModelRows,
    PROCESS_ZOO,
    TestReport,
    build_model,
    equivalence_suite,
    martingale_drift_test,
    optional_representation_check,
    qp_residual,
    sigma_h_check,
)
from .signflip import (
    AlphaSchedule,
    apply_sign,
    assign_signs,
    build_sign_path,
    draw_sign_path,
)
from .skewbm import (
    LawSample,
    SkewLaw,
    build_skew,
    harrison_shepp_terminals,
    law_test,
    sde_residual,
    skew_terminal_sample,
    skew_terminal_samples,
    skew_transition_cdf,
    skew_transition_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Markov chains behind random reversible circuits and k-wise mixing.

Exact transition kernels for the gate chain, the two clique-recoloring
chains, their generic-state relatives and product compositions; the
functional-inequality toolbox (Dirichlet forms, entropy, log-Sobolev
ratio search, spectral gaps); the explicit edge-to-path comparison map
with its exact congestion; and exact plus Monte Carlo mixing
experiments. Everything is seedable and reproducible.
"""

__version__ = "0.1.0"

from .analysis import (
    ChainRuleReport,
    chain_rule_check,
    chain_rule_residual,
    complete_alpha_lower_bound,
    dirichlet_form,
    entropy,
    lsc_ratio,
    lsc_search,
    paper_alpha_floor,
    spectral_gap,
    ucc_alpha_lower_bound,
    verify_reversible,
)
from .chains import (
    ChainSpec,
    Kernel,
    build_kernel,
    enumerate_generic_states,
    product_kernel,
    sample_chain,
)
from .comparison import (
    ComparisonReport,
    CongestionResult,
    compare_check,
    congestion_delta,
    congestion_formula_bound,
    dirichlet_comparison_residual,
)
from .core import (
    dedupe_gates,
    enumerate_tuples,
    tuple_space_size,
)
from .errors import InvariantViolation, KwmixError, StateCapExceeded, state_cap
from .generic import (
    Partition,
    generic_fraction_exact,
    generic_fraction_mc,
    make_partition,
    verify_tgrev_product_structure,
)
from .mixing import (
    EndStateReport,
    StatTestReport,
    end_state_test,
    evolve,
    kwise_stat_mc,
    kwise_tv_exact,
    mixing_curve,
    mixing_time_exact,
    pointwise_relative_error,
    tv_curve,
    tv_distance,
)
from .rng import make_rng

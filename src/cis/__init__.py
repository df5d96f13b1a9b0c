"""Statistics of continuously increasing subsequences in random multiset permutations.

A word in S_{m,n} uses each value 1..n exactly m times.  The library
computes run-length statistics of such words three ways (exact rational
arithmetic, a spectral closed form, Monte Carlo), provides the
combinatorial bounds connecting them, and simulates the partial-feedback
card-guessing game whose scores these statistics govern.
"""

__version__ = "0.2.0"

from .errors import (
    AlphabetViolation,
    CisError,
    DomainError,
    InternalInconsistency,
    MultiplicityViolation,
    NoConvergence,
    SpaceTooLarge,
)
from .rng import RandomSource, substream
from .words import (
    Word,
    count_complete_bruteforce,
    enumerate_words,
    l1,
    l_max,
    l_start,
    make_word,
    multiset_count,
    sample_uniform,
)
from .exact import (
    SeriesResult,
    complete_prob,
    horton_kurn_h,
    l1_finite_expectation,
    l1_series,
    p_value,
    phi_apply,
    phi_inverse,
    q_poly,
    weak_compositions,
)
from .spectral import (
    ClosedForm,
    PartitionReport,
    PowerSumReport,
    ReciprocalSeries,
    RootSet,
    approx_l1,
    find_roots,
    inverse_power_sums_exact,
    l1_closed_form,
    power_sum_check,
    reciprocal_series,
    root_partition_diagnostic,
    truncated_exp,
    zemyan_targets,
)
from .bounds import (
    AsymptoticLower,
    CodeBook,
    EntropyCheck,
    ExpectationBound,
    FactorialThreshold,
    WordFamily,
    arithmetic_progressions,
    block_lower_bound,
    completion_lower,
    continuous_runs,
    entropy_binom_check,
    expectation_upper,
    factorial_threshold,
    greedy_code,
    gv_size_bound,
    hamming,
    inverse_gamma,
    lower_cont_asymptotic,
    tail_bound,
)
from .montecarlo import (
    Estimate,
    MomentReport,
    Obs1Report,
    Obs2Report,
    central_target,
    check_observation1,
    check_observation2,
    estimate_l1,
    estimate_lis,
    estimate_lmax,
    moments,
    raw_target,
)
from .cardgame import STRATEGIES, GameTrace, expected_score, play, safe_expected_exact

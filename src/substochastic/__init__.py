"""Spectral analysis of (sub)stochastic weightings of strong digraphs.

The library computes Perron roots, cycle gains and minimum cycle
transversals of finite weighted digraphs, builds the adversarial weighting
families that drive truncation-ladder gaps, classifies infinite families as
transient or recurrent with certificates, and machine-verifies a suite of
determinant inequalities at desk scale.
"""

from .classify import (
    CyrStructural,
    DivergingSeries,
    PruittVector,
    RecurrenceVerdict,
    classify_recurrence,
    cyr_criterion,
    green_partial_sums,
    verify_pruitt,
)
from .constructions import (
    EpsilonSchedule,
    GapTarget,
    build_corollary1,
    build_example1,
    build_example2,
    build_prop1,
    build_prop2,
    build_theorem2_fast,
    family_from_config,
)
from .cycles import (
    Cycle,
    Gain,
    GAIN_ZERO,
    TransversalResult,
    enumerate_cycles,
    is_cycle_transversal,
    min_cycle_transversal,
    sup_cycle_gain,
)
from .digraph import (
    Tag,
    WeightedDigraph,
    WeightingClass,
    classify_weighting,
    strongly_connected_components,
)
from .errors import (
    BudgetExceededError,
    FamilyDefinitionError,
    MetadataError,
    SpectralRadiusError,
)
from .families import (
    FamilyFacts,
    MetadataReport,
    TruncationFamily,
    family_to_float,
    truncate,
    validate_metadata,
)
from .inequalities import (
    InequalityReport,
    check_boyle_handelman,
    check_diag_transversal_bound,
    check_ksv,
    check_sigma_bound,
    check_trace_bounds,
    check_transversal_product,
    check_zeta_identity,
    random_strong_digraph,
    run_suite,
    scan_argmax_conjecture,
)
from .spectral import (
    TruncationSpectrum,
    charpoly,
    coates_charpoly,
    collatz_wielandt_brackets,
    det_i_minus,
    perron_bounds,
    perron_ladder,
    perron_root,
    radius_brackets,
    resolvent_diagonal,
)
from .sweeps import DecayFit, SweepSpec, fit_decay, run_sweep, sweep_csv, sweep_json

__version__ = "0.1.0"

"""Conditional-sampling distribution testers over explicit pmfs.

Simulated SAMP/COND/PCOND/ICOND oracles with query accounting, the
testers and estimators built on them (uniformity, known-target
identity, equality of two unknowns, distance to uniformity, point-mass
evaluation), hard-instance generators, and a Monte Carlo harness.
"""

from ._version import __version__
from .adversarial import (
    GENERATORS,
    gen_block_profile,
    gen_half_split,
    gen_staircase,
    rand_block_profile,
    rand_staircase,
)
from .distance import (
    ReferencePoint,
    estimate_distance_to_uniformity,
    find_reference,
)
from .distcore import (
    Distribution,
    QuerySet,
    conditional_pmf,
    light_set,
    load_spec,
    make_distribution,
    neighborhood_mass,
    psi_vector,
    tv_distance,
    uniform,
)
from .equality import (
    approx_eval,
    eval_test_equality,
    pcond_test_equality,
)
from .errors import (
    BadBlockGeometry,
    BadDrawCount,
    BadEpsilon,
    BadGeneratorParam,
    BadProfile,
    BadQuerySet,
    BadReport,
    BadSeed,
    BadSweepGrid,
    BadTrialCount,
    CondtestError,
    DisciplineViolation,
    DomainMismatch,
    DomainTooLarge,
    EvalFailed,
    IllegalShapeForModel,
    IncompatibleOracleModel,
    NegativeWeight,
    NonFiniteWeight,
    NotInNoGapRegime,
    OddN,
    SetsNotDisjoint,
    SpecParseError,
    UnknownTester,
    ZeroMassSet,
    ZeroTotalMass,
)
from .harness import (
    ExperimentConfig,
    TESTERS,
    TrialRecord,
    passes_guarantee,
    run_experiment,
    run_trial,
    scaling_sweep,
    wilson_interval,
    write_csv,
    write_json,
)
from .identity import (
    KnownTarget,
    build_witnesses,
    cond_test_known,
    pcond_test_known,
)
from .interval import binary_descent, icond_test_uniform
from .oracles import (
    COND,
    ICOND,
    OracleHandle,
    PCOND,
    PERMISSIVE,
    QueryLedger,
    SAMP,
    STRICT,
)
from .profiles import DESK, THEORETICAL, ConstantsProfile, resolve_profile
from .subroutines import (
    NeighborhoodEstimate,
    compare_budget,
    compare_points,
    estimate_neighborhood,
    neighborhood_schedule,
    ratio_in_window,
)
from .uniformity import ACCEPT, REJECT, pcond_test_uniform, query_budget

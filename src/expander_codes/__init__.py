"""Expander-code toolkit.

Bipartite-graph construction and certification, GF(2) code machinery,
the decoder family (erasure peeling, bit flipping, suspect finding,
guess-driven decoders), and list-decoding radius calculators, all exact
at desk scale.
"""

from .errors import (
    BudgetExceeded,
    ConvergenceFailed,
    ExpanderCodeError,
    GenerationFailed,
    GraphFormatError,
    InvalidInput,
    InvalidParameters,
)
from .graphs import (
    BipartiteGraph,
    ExpanderParams,
    RegularGraph,
    complete_graph,
    cycle_graph,
    gen_biregular,
    gen_left_regular,
    load,
    random_regular_graph,
    store,
    union_graph,
    vertex_edge_graph,
)
from .expansion import (
    CollisionReport,
    ExpansionProfile,
    TradeoffBound,
    VerifyResult,
    collisions,
    measure_profile,
    neighbors,
    odd_neighbors,
    parameter_facts,
    profile_to_csv,
    tradeoff_bound_first,
    tradeoff_bound_second,
    unique_neighbors,
    verify_expander,
)
from .linear_code import (
    DistanceBound,
    DistanceResult,
    NullspaceBasis,
    Syndrome,
    Word,
    distance_lower_bound,
    format_word,
    is_codeword,
    min_distance_bruteforce,
    nullspace,
    parse_word,
    plant_errors,
    sample_codeword,
    syndrome,
)
from .decoders import (
    DecodeOutcome,
    ErasureConfig,
    ExpansionGuess,
    FindConfig,
    FindTrace,
    FlipRoundReport,
    GuessSchedule,
    decode_erasures,
    find_suspects,
    fixed_find_and_decode,
    flip_decode_ss,
    flip_round,
    guess_expansion_decode_grid,
    guess_expansion_decode_poly,
    guess_flip_decode,
    scaled_guess_flip_decode,
    viderman_decode,
)
from .list_decoding import (
    ListRadiusBreakdown,
    TauProfile,
    enumerate_list,
    improved_radius,
    johnson_radius,
    tau_profile,
    threshold_claim_check,
)
from .experiments import (
    DECODER_NAMES,
    ERROR_MODELS,
    ExperimentConfig,
    RadiiReport,
    TrialResult,
    iter_error_patterns,
    report_radii,
    format_radii_table,
    results_to_csv,
    sweep,
    trial_seed,
)

__version__ = "0.1.0"

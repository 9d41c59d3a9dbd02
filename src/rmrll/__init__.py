"""Gap-constrained transmission with Reed-Muller codes.

The package builds binary Reed-Muller codes, shapes them to the
(d, infinity) minimum-gap constraint either by intersecting with an
anchored monomial subcode or by steering coset leaders with an
enumerative prefix map, and measures the resulting rates and error
probabilities on erasure and flip channels.
"""

from .channels import (
    BEC,
    BSC,
    ERASED,
    BlockErrorEstimate,
    binary_entropy,
    estimate_bit_error,
    estimate_block_error,
    trial_stream,
)
from .coset import (
    CosetPlan,
    CosetTransmission,
    DecodeResult,
    bsc_threshold,
    build_plan,
    coset_rate_lower_bound,
    crossover_capacity,
    decode,
    encode,
)
from .gf2 import BinaryMatrix, BitWord, Solution
from .ordering import (
    Ordering,
    PermutationExperiment,
    PermutationSample,
    RunProfile,
    asymptotic_linear_bound,
    gray_ordering,
    lex_run_count,
    lexicographic_ordering,
    permutation_bound_experiment,
    run_profile,
    sample_permutation,
    subcode_dimension_bound,
)
from .rll import (
    RllSpec,
    count_constrained,
    enumerative_decode,
    enumerative_encode,
    is_constrained,
    noiseless_capacity,
    payload_bits,
)
from .rm import RmCode, complement_basis, eval_monomial, point_of_index, select_order
from .subcodes import (
    RllSubcode,
    build_subcode,
    largest_linear_rll_subcode,
    subcode_rate,
)

__version__ = "0.1.0"

__all__ = [
    "BEC",
    "BSC",
    "ERASED",
    "BinaryMatrix",
    "BitWord",
    "BlockErrorEstimate",
    "CosetPlan",
    "CosetTransmission",
    "DecodeResult",
    "Ordering",
    "PermutationExperiment",
    "PermutationSample",
    "RllSpec",
    "RllSubcode",
    "RmCode",
    "RunProfile",
    "Solution",
    "asymptotic_linear_bound",
    "binary_entropy",
    "bsc_threshold",
    "build_plan",
    "build_subcode",
    "complement_basis",
    "coset_rate_lower_bound",
    "count_constrained",
    "crossover_capacity",
    "decode",
    "encode",
    "enumerative_decode",
    "enumerative_encode",
    "estimate_bit_error",
    "estimate_block_error",
    "eval_monomial",
    "gray_ordering",
    "is_constrained",
    "largest_linear_rll_subcode",
    "lex_run_count",
    "lexicographic_ordering",
    "noiseless_capacity",
    "payload_bits",
    "permutation_bound_experiment",
    "point_of_index",
    "run_profile",
    "sample_permutation",
    "select_order",
    "subcode_dimension_bound",
    "subcode_rate",
    "trial_stream",
]

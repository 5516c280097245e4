"""Universal operator models of regular polydomains on truncated Fock spaces.

The package builds the weighted creation-operator models attached to a
polydomain specification, classifies weighted multi-Toeplitz operators,
extracts and evaluates their Fourier symbols, runs Berezin-transform and
positivity checks, and verifies the structural (Brown-Halmos type) equation,
all at configurable truncation degrees.
"""

from .brownhalmos import bh_residual, bh_scan, build_row
from .cpmaps import (
    BerezinKernel,
    OperatorTuple,
    UniversalModel,
    berezin_kernel,
    berezin_transform,
    defect,
    is_member,
    is_pure,
    phi_map,
    random_pure_tuple,
)
from .errors import (
    DimensionMismatch,
    NotComparable,
    NumericalRankError,
    PolytoeplitzError,
    SpecError,
    TruncationError,
)
from .freemonoid import (
    IndexPair,
    MultiWord,
    Word,
    enumerate_words,
    multiword_unindex,
    reverse,
)
from .model import (
    FockOperator,
    FockSpace,
    monomial,
    scalar_kernel,
    truncated_gram_kernel,
    weighted_left_creation,
    weighted_right_creation,
)
from .toeplitz import (
    FourierSymbol,
    NotMultiToeplitz,
    ToeplitzReport,
    cesaro_reconstruct,
    evaluate_at_model,
    evaluate_at_tuple,
    extract_fourier,
    graded_entries,
    is_multi_toeplitz,
    pluriharmonic_kernel,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
)
from .weights import (
    PolydomainSpec,
    WeightTable,
    brute_force_weight,
    build_weight_table,
    compactness_ratios,
    spec_from_json,
)

__version__ = "0.1.0"

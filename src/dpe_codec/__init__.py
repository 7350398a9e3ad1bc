"""Fault-tolerant coding schemes for integer dot-product engines.

Systematic row-wise encoders append redundancy columns to a matrix over a
digit alphabet so that the vector-matrix product read off the engine can be
decoded after L1-metric or Hamming-metric computational errors, plus a
crossbar fault simulator and brute-force verification oracles.
"""

from .basemath import (
    PrimeField,
    gfp_inv,
    gfp_quadratic_roots,
    gfp_sqrt,
    hamming_dist,
    is_prime,
    jacobsthal_weight,
    jacobsthal_weights,
    l1_dist,
    l1_norm,
    signed_value,
    sphere_volume_l1,
)
from .berlekamp import (
    BerlekampCode,
    decode_double_error,
    locate_key_equation,
    systematic_encode,
)
from .core import (
    DECODE_FAILURE,
    DecodeOutcome,
    QMatrix,
    ReadVector,
    output_alphabet,
)
from .double import DoubleErrorScheme, ShortenedScheme, TripleDetectScheme
from .hamming import HammingScheme, ReedSolomonCode
from .locators import (
    Locators,
    build_locators_basic,
    build_locators_ded,
    validate_locators,
)
from .multi import LargeAlphabetScheme, RecursiveScheme
from .oracles import (
    LinearInnerCode,
    base_q_digits,
    base_q_value,
    decode_exhaustive,
    digit_split,
    enumerate_induced_code,
    induced_min_distance,
    mixed_radix_digits,
    nearest_prefix_decode,
    scan_errors_erasures,
    syndrome_matrix,
)
from .simulate import FaultModel, SimReport, compute_clean, inject
from .single import (
    ParityDetectScheme,
    SecDedScheme,
    SingleErrorScheme,
    redundancy_lower_bound,
)

__all__ = [
    "BerlekampCode",
    "DECODE_FAILURE",
    "DecodeOutcome",
    "DoubleErrorScheme",
    "FaultModel",
    "HammingScheme",
    "LargeAlphabetScheme",
    "LinearInnerCode",
    "Locators",
    "ParityDetectScheme",
    "PrimeField",
    "QMatrix",
    "ReadVector",
    "RecursiveScheme",
    "ReedSolomonCode",
    "SecDedScheme",
    "ShortenedScheme",
    "SimReport",
    "SingleErrorScheme",
    "TripleDetectScheme",
    "base_q_digits",
    "base_q_value",
    "compute_clean",
    "decode_double_error",
    "decode_exhaustive",
    "digit_split",
    "enumerate_induced_code",
    "gfp_inv",
    "gfp_quadratic_roots",
    "gfp_sqrt",
    "hamming_dist",
    "induced_min_distance",
    "inject",
    "is_prime",
    "jacobsthal_weight",
    "jacobsthal_weights",
    "l1_dist",
    "l1_norm",
    "locate_key_equation",
    "mixed_radix_digits",
    "nearest_prefix_decode",
    "output_alphabet",
    "redundancy_lower_bound",
    "scan_errors_erasures",
    "signed_value",
    "sphere_volume_l1",
    "syndrome_matrix",
    "systematic_encode",
    "validate_locators",
]

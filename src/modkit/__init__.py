"""Exact cyclotomic arithmetic for constructing, verifying and classifying
modular data: unitary symmetric S-matrices with twists whose Verlinde
coefficients land in N (nondegenerate inputs) or in Z (slightly degenerate
inputs, through the fermion-orbit quotient)."""

from .cyclotomic import (CycNum, is_root_of_unity, is_totally_positive, root_of_unity,
                         sqrt_in_field, zeta)
from .datum import (DegeneracyError, ModularDatum, RawDatum, SlightlyDegenerateData,
                    World, bar_involution, detect_symmetric_center, dims_of,
                    epsilon_action, reduce_slightly_degenerate)
from .fusion import FusionTensor, quotient_constants
from .checks import (VerificationReport, check_axioms, check_balancing, check_gauss_product,
                     check_raw_unitarity, check_sl2_relations, check_twist_laws, check_vafa)
from .matrix import CycMatrix
from .pipeline import emit_zmodular, verify_normalized, verify_raw
from .verlinde import verlinde_fusion, verlinde_raw
from .kernel import BACKEND as kernel_backend

__version__ = "0.1.0"

__all__ = [
    "CycNum", "CycMatrix", "RawDatum", "ModularDatum", "SlightlyDegenerateData",
    "World", "FusionTensor", "VerificationReport", "DegeneracyError",
    "root_of_unity", "zeta", "is_root_of_unity",
    "is_totally_positive", "sqrt_in_field",
    "dims_of", "detect_symmetric_center", "bar_involution", "epsilon_action",
    "reduce_slightly_degenerate", "quotient_constants",
    "check_axioms", "check_balancing", "check_gauss_product", "check_raw_unitarity",
    "check_sl2_relations", "check_twist_laws", "check_vafa",
    "verlinde_fusion", "verlinde_raw",
    "verify_raw", "verify_normalized", "emit_zmodular",
    "kernel_backend",
]

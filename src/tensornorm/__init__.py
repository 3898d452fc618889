"""Exact tensor-product norms over valued function fields.

The library computes, in exact arithmetic, the natural norm on the tensor
product of two rational function fields over a (trivially valued) base
drawn from a finite-field closure tower, and exposes the property suites
that check the norm is multiplicative over an algebraically closed base
and fails to be over a non-closed one.
"""

from .magnitude import Magnitude, scaled_compare
from .closure import ClosureElem, LatticeError, TowerConfig
from .polynomials import Polynomial, exact_div, poly_gcd, poly_lcm
from .function_fields import (CoordSystem, ExtensionDescriptor, TowerElem,
                              coordinatize, gauss_value, min_coset_value)
from .tensor import (InstanceInvalidError, PureDecomposition, ReducedRep,
                     TensorElem, eliminate_dependent, is_zero,
                     orthogonalize_left, pure_decompose, tensor_norm,
                     value_estimate_check)
from .parsing import (FieldSetup, ParseError, format_tensor_elem,
                      format_tower_elem, load_field_setup, parse_field_setup,
                      parse_tensor_elem, parse_tower_elem)
from .generators import ScenarioConfig, SplitMix64, trial_rng
from .suites import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Magnitude", "scaled_compare",
    "ClosureElem", "LatticeError", "TowerConfig",
    "Polynomial", "exact_div", "poly_gcd", "poly_lcm",
    "CoordSystem", "ExtensionDescriptor", "TowerElem",
    "coordinatize", "gauss_value", "min_coset_value",
    "InstanceInvalidError", "PureDecomposition", "ReducedRep", "TensorElem",
    "eliminate_dependent", "is_zero", "orthogonalize_left", "pure_decompose",
    "tensor_norm", "value_estimate_check",
    "FieldSetup", "ParseError", "format_tensor_elem", "format_tower_elem",
    "load_field_setup", "parse_field_setup", "parse_tensor_elem",
    "parse_tower_elem",
    "ScenarioConfig", "SplitMix64", "trial_rng",
    "SUITE_NAMES", "SuiteReport", "run_suite",
]

"""Paley type group schemes over finite fields, with exact arithmetic.

The package builds subsets D of a finite field's unit group satisfying

    (1 + 2 D^(-1)) (1 + 2 D)  =  |G| + (|G| - 1) G     in Z[(F, +)],

which are strongly regular graphs when |F| = 1 mod 4 and skew Hadamard
difference sets when |F| = 3 mod 4.  Every verification path runs on
exact integer numpy kernels, with no floating point.  Classification
counts three tallies in float64: `classify._triple_table`, whose entries
are at most the block size, the neighbourhood product of
`classify.fingerprint`, whose sum is at most k^3 < 2^53 for the valency
k, and the A A and A A^T checks of `classify.make_configuration`, whose
entries are at most the order n <= 4096.  All are exact.
"""

__version__ = "0.1.0"

from .classify import (Configuration, affine_link, aut_order,
                       canonical_certificate, canonical_hash,
                       development_profile, fingerprint, iso_test,
                       make_configuration, scheme_seeds, semilinear_canonical)
from .constructions import (AdpRecord, LangevinParams, LangevinResult,
                            adp_check, adp_dual, adp_half_power_family,
                            adp_lift, adp_power_family, class_number,
                            cyclotomic_scheme, gmw_lift_scheme,
                            is_strong_multiplier, langevin_scheme,
                            langevin_solve, power_set, scheme_from_adp,
                            union_scheme, validate_cyclotomic_params)
from .errors import (BudgetExceededError, InternalInconsistencyError,
                     PaleyError, ParameterError, PreconditionError,
                     VerificationFailedError)
from .fields import FiniteField, get_field
from .graph6 import decode_graph6, design_to_json, encode_graph6
from .groupring import CyclicGroup, FieldAdditiveGroup, GroupRingElement
from .schemes import (METHODS, SchemeRecord, build_DX, certify,
                      complement_units, dual_scheme, frobenius,
                      is_half_point, negate, recover_X, scale,
                      verify_additive, verify_dual, verify_multiplicative,
                      verify_quotient, verify_scheme)
from .search import (SearchResult, SearchSpace, all_subsets_space,
                     cyclotomic_space, galois_space, orbits_under_multiplier,
                     search_all_X, search_cyclotomic_unions,
                     search_galois_invariant)
from .singer import (SingerBundle, build_singer_bundle, gmw_components,
                     singer_bundle)

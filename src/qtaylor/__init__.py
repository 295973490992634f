"""Numerical verification engine for the basic well-poised q-Taylor calculus.

Evaluates q-shifted factorials, theta products, basic hypergeometric
series, Askey-Wilson-type divided-difference operators, rational Taylor
bases, the two-basis kernel with its coefficient families, annular
profiles and the quadratic one-family expansions, all in complex binary64
arithmetic with controlled truncation, and ships property suites that
confirm each identity numerically at desk scale.
"""

from .errors import (ConfigError, ConvergenceRegionViolation, DivergenceSuspected,
                     DomainError, ExceptionalPoint, NearSingularPoint,
                     PoleProximity, QTaylorError, QuadratureNonConvergence,
                     TruncationFailure, ZeroDenominator)
from .hyper import (PhiSeriesSpec, VWPSpec, jackson_8w7_terms, rogers_6w5_terms,
                    series_eval)
from .kernel import (KernelParams, bailey_terms, fk_coefficients, gk_coefficients,
                     involute, kernel_factors, kernel_taylor_terms,
                     laurent_coefficient_detail, structured_E_terms, two_basis_terms)
from .profiles import (ProfileMoments, annular_factorization_terms, bridge_terms,
                       canonical_growth_profile, contiguous_moment,
                       exponential_profile_limit_residual,
                       L_profile, leading_profile_terms,
                       profile_coefficient_terms, profile_kernel_P,
                       profile_kernel_coefficients, profile_sums_and_closed_forms)
from .qcore import (QContext, TailBound, geometric_depth, qpoch_finite,
                    qpoch_infinite, qpoch_multi, residual_and_scale, scaled_residual, theta)
from .quadratic import (QuadraticParams, companion_taylor_terms, companion_terms,
                        folding_terms, quadratic_taylor_terms, quadratic_terms)
from .suites import (SuiteConfig, VerificationReport, emit_decay_csv,
                     run_suites)
from .taylor import (BasisPair, basis_sup_curve,
                     flatness_check, phi_basis, taylor_expand,
                     taylor_sum_and_remainder)
from .wpoperator import (apply_Dcq, apply_Dq, apply_iterated, cooper_eval,
                         grid_functional_weights)

__version__ = "0.1.0"

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
from .hyper import (PhiSeriesSpec, VWPSpec, jackson_8w7_residual, phi_eval,
                    rogers_6w5_residual, vwp_eval)
from .kernel import (KernelParams, bailey_crosscheck,
                     cancellation_identity_residual, complementary_remainder_gap,
                     fk_coefficient, gk_coefficient, involute, kernel_factors,
                     kernel_taylor_crosscheck, laurent_coefficient_detail,
                     two_basis_residual)
from .profiles import (AnnulusSpec, ProfileMoments, annular_factorization_residual,
                       canonical_growth_profile, contiguous_moment,
                       exponential_profile_limit_residual,
                       L_profile, leading_profile_residual,
                       profile_coefficient_residual, profile_kernel_P,
                       profile_kernel_coefficient, profile_sums_and_closed_forms)
from .qcore import (QContext, TailBound, geometric_depth, qpoch_finite,
                    qpoch_infinite, qpoch_multi, scaled_residual, theta)
from .quadratic import (QuadraticParams, companion_residual,
                        folding_identity_check, quadratic_residual,
                        quadratic_taylor_identification)
from .suites import (SuiteConfig, VerificationReport, emit_decay_csv,
                     run_suites)
from .taylor import (BasisPair, TaylorExpansion, basis_sup_estimate,
                     flatness_check, phi_basis, taylor_coefficient,
                     taylor_sum_and_remainder)
from .wpoperator import (OperatorChainSpec, SymmetricFunction, apply_Dcq,
                         apply_Dq, apply_iterated, cooper_eval,
                         grid_functional_weights)

__version__ = "0.1.0"

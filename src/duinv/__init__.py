"""
Exact invariant theory of finite group actions on graded down-up algebras:
cyclotomic arithmetic, Molien averages, homological determinants,
bireflection structure and cyclotomic-Gorenstein reports.
"""

from .cycnum import CycNum, render_cyc, root_exponent, zeta
from .errors import (BireflectionMismatch, DivisionByZero, DuinvError,
                     GroupTooLarge, InfiniteOrderSuspected, NonMonomialMatrix,
                     NonNormalizableDenominator, NonRationalCollapse,
                     NotAnAutomorphism, ParseError, PromotionOverflow,
                     SingularGenerator, UnsupportedAutomorphism, ZeroConductor,
                     ZeroFunction, ZeroPolynomial)
from .intpoly import (CycFactorization, IntPoly, cyclotomic_poly, divisors,
                      factorize, is_cyclotomic_product, one_minus_t_pow,
                      poly_gcd_q, totient, x_pow)
from .invariants import (AlgebraCtx, AutShape, Theorem03Report, bireflection_subgroup,
                         hdet_matrix, is_bireflection, molien, polyring_molien,
                         theorem03_report)
from .matgroup import (GroupLabel, Mat2, MatGroup, classify, close_group,
                       eigenvalues, mat_c, mat_c_minus, mat_d1, mat_s, mat_s1,
                       render_matrix, standard_group)
from .ratfunc import RatFunc, stanley_gorenstein_test
from .notation import parse_cyc, parse_matrix

__version__ = "0.1.0"

"""winfty: exact computation in W-infinity type algebras.

The library covers the Weyl-type algebras W(Gamma, n), their |mu| >= 1
subalgebras W(Gamma, n)^(1), the one-variable central extension, modules of
the intermediate series, and a harness of exact identity verifications.
All arithmetic is exact (rationals and sparse multivariate polynomials).
"""

from .lattice import Direction, Lattice, inner
from .onevar import (DfElement, GeneratedSubalgebra, ddt_power, df_bracket,
                     generation_membership, standard_generators, t_ddt,
                     verify_named_identity)
from .intermediate import (IntermediateModule, PQData, WindowEscapeError, act,
                           assoc_module_check, box_window, highest_weight_scan,
                           lie_module_check, make_module, normalize_ddt_basis,
                           sigma_eval, submodule_scan)
from .parser import ParseError, Session, UnknownSymbolError, as_element, parse, \
    parse_element
from .printer import format_element, format_monomial
from .report import GRAMMAR_VERSION, ReportDocument, VerificationReport
from .scalars import Ring, Scalar, binom, falling, rising
from .suites import SUITE_NAMES, SuiteOptions, run_suite
from .weightlab import (build_f_polynomials, build_p_series,
                        coefficient_claims, p_series_report,
                        verify_yk_relations, virasoro_consistency,
                        weightlab_ring)
from .weyl import (BasisMismatchError, GradingWindow, SubalgebraError, Weyl,
                   WeylElement, act_on_combination, bracket, cocycle,
                   degree_one_bracket, ext_bracket, mul, operator_action,
                   verify_cocycle_condition, verify_jacobi)

__version__ = "0.1.0"

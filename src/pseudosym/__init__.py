"""Computer algebra for 4-generated pseudo-symmetric numerical semigroups.

The pipeline: parameters -> generators and semigroup oracles -> defining
binomials of the monomial curve -> local standard basis (ecart-guided weak
normal forms) -> tangent cone and leading ideal -> Hilbert numerator (pivot
recursion and closed forms) -> second series, Hilbert function, monotonicity
and Cohen-Macaulayness verdicts, all cross-checked against independent
brute-force routes.
"""

from .cm import CmVerdict, cm_by_divisibility, cm_verdict, colon_stability
from .errors import InconsistencyError, ParameterError, UnsupportedParametersError
from .hilbert import (
    HilbertReport,
    closed_form_numerator,
    closed_form_second_series,
    hilbert_function,
    hilbert_numerator,
    monomial_colon,
    second_series,
)
from .pipeline import SweepConfig, build_report, iter_sweep, run_sweep
from .poly import (
    GLOBAL,
    LOCAL,
    MonomialOrder,
    Polynomial,
    Term,
    binomial,
    divides,
    ecart,
    leading_term,
    normalize,
    parse_poly,
    render_poly,
    spoly,
)
from .semigroup import (
    NumericalSemigroup,
    PseudoSymmetricParams,
    SemigroupTable,
    apery_set,
    check_conditions,
    construct_generators,
    frobenius_and_gaps,
    genus,
    hilbert_oracle,
    is_pseudo_symmetric,
    membership_table,
)
from .stdbasis import (
    TangentConeIdeal,
    buchberger_homogeneous,
    leading_ideal,
    lowest_form,
    nf_mora,
    standard_basis,
    tangent_cone_ideal,
)
from .toric import ClosedFormBasis, ToricSystem, closed_form_basis, compute_k, sdegree, toric_generators

__version__ = "0.1.0"

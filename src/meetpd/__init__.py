"""Meet matrices, Mobius inversion, and positive semidefiniteness tests
for functions on meet semilattices and for multivariate arithmetic
functions on the positive integers."""

from .arith import (
    builtin,
    dirichlet_convolve_d,
    pd_check_grid,
    ramanujan_C,
    to_lattice_function,
)
from .errors import (
    ArityLimitError,
    ArityMismatchError,
    AmbientNotEnumerableError,
    CycleError,
    DimensionMismatchError,
    DuplicateElementError,
    EvaluationError,
    ExponentLimitError,
    InexactFunctionError,
    MeetPDError,
    NegativeScalarError,
    NoLeastElementError,
    NotASemilatticeError,
    NotMeetClosedError,
    NumericalFailureError,
    PosetMismatchError,
    UnknownBuiltinError,
)
from .exact import Inertia, char_poly, quadratic_form, symmetric_elimination
from .incidence import inverted_values, mobius
from .meetmatrix import (
    Decomposition,
    LatticeFunction,
    MeetMatrix,
    constant_function,
    decomposition_to_json,
    kron_decompose_d,
    matrix_to_csv,
    matrix_to_json,
    meet_composed_function,
    meet_matrix,
    reconstruct,
    summatory_function,
    table_function,
)
from .pdcheck import (
    NEGATIVE,
    POSITIVE,
    ElementWitness,
    OracleReport,
    PDVerdict,
    VectorWitness,
    add,
    inverted_table,
    pd_criterion,
    pointwise_mul,
    psd_oracle,
    scale,
)
from .posets import (
    DivisorLattice,
    ElementSubset,
    MeetSemilattice,
    MinLattice,
    Poset,
    ProductLattice,
    ProductSubset,
    divisor_lattice,
    linear_extension,
    load_hasse,
    lower_closure,
    meet_closure,
    min_lattice,
    product_subset,
    subset,
)

__version__ = "0.1.0"

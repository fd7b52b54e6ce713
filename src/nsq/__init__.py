"""Exact symbolic engine for the graded symplectic geometry of frame bundles.

The package implements, in exact rational arithmetic, the tensor-valued
polynomial observables of the frame bundle of R^n, their graded Poisson
bracket and Hamiltonian vector fields, the reduction to the 2n-dimensional
subbundle slices, two full polynomial quantization maps with the
bracket-to-commutator condition machine-verified, and the contrasting
cotangent-bundle obstruction witness.
"""

from .algebra import (
    FramePoint,
    Observable,
    all_multi_indices,
    canonicalize,
    evaluate,
    make_pihat,
    make_qhat,
    make_rhat,
    sym_mul,
    sym_pow,
)
from .errors import (
    DimensionMismatch,
    EngineError,
    GaugeConditionError,
    IndexRangeError,
    NotInGeneratorAlgebra,
    ParseError,
    RankMismatch,
)
from .forms import (
    HamVF,
    OneForm,
    TwoForm,
    VectorField,
    add_gauge,
    ham_vf,
    lie_preserves_form,
    soldering_dtheta,
    structure_eq_check,
    vf_bracket,
)
from .poisson import (
    bracket,
    grade_of_bracket,
    is_in_Pk,
    jacobi_residual,
    min_rank,
    tensor_extension_identity_check,
    theorem1_check,
)
from .quantization import (
    DiffOperator,
    QuantizationMap,
    axiom_report,
    commutator,
    dirac_check,
    formal_adjoint,
    make_q1,
    make_q2,
    op_compose,
    quantize,
)
from .reports import VerificationReport
from .subbundle import (
    G1Element,
    SubbundlePoint,
    frame_from_params,
    g1_inv,
    g1_mul,
    gauge_fix_for_B1,
    pullback_two_form,
    reduce_observable,
    reduced_bracket,
    right_action,
    slice_check,
    tangency_check,
)
from .symplectic_ref import (
    classical_bracket,
    groenewold_witness,
    weyl_quantize,
)

__version__ = "0.1.0"

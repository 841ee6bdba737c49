"""Fourier multipliers and spectra of linear state-based peridynamic operators.

The package evaluates the tensor Fourier multipliers of the operator in
closed hypergeometric form (:mod:`perispec.multipliers`), cross-checks them
against direct quadrature of the defining integrals
(:mod:`perispec.oracle`), and enumerates the resulting operator spectrum on
periodic boxes (:mod:`perispec.spectrum`).  The series engine lives in
:mod:`perispec.hypergeom`; the ``perispec`` command (:mod:`perispec.cli`)
exposes figure data, a verification sweep, and spectrum tables.

The oracle's names are re-exported lazily (PEP 562): ``perispec.oracle``,
and with it ``scipy``, is imported on first access to one of them, so
``import perispec`` and the closed-form paths do not pay for it.
"""

from .errors import (AccuracyNotReached, DegenerateEigenvalue, InvalidParams,
                     NonConvergent, PerispecError, SingularMode,
                     ZeroFrequency, ZeroMode)
from .hypergeom import (EvalResult, PfqParams, f_form_derivatives,
                        merge_linear_combination, pfq, pfq_many,
                        pfq_minus_one, pochhammer)
from .multipliers import (EigenDecomposition, Material, NonlocalParams,
                          TensorMultiplier, eigen_decomposition,
                          eigenvalue_parallel, eigenvalue_parallel_split,
                          eigenvalue_transverse, eigenvalues,
                          eigenvalues_by_material, gradient_factor,
                          navier_eigenvalues, navier_multiplier,
                          orthonormal_basis,
                          scalar_multiplier, scalar_multiplier_gradient,
                          scaling_constant, tensor_multiplier,
                          tensor_multiplier_bond, tensor_multiplier_state)
from .spectrum import (FourierField, SpectrumRecord, TorusSpec,
                       apply_operator, eigenfield, frequency_vector,
                       solve_periodic, spectrum_table)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset((
    "QuadratureSpec", "apply_to_plane_wave", "lambda1_quad", "lambda2_quad",
    "moment_identity_check", "quadrature_bundle", "scalar_multiplier_quad",
    "tensor_bond_quad", "tensor_state_quad"))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Fourier multipliers and spectra of linear state-based peridynamic operators.

The package evaluates the tensor Fourier multipliers of the operator in
closed hypergeometric form (:mod:`perispec.multipliers`, with
``closed_bundle`` for every quantity at one frequency), cross-checks them
against direct quadrature of the defining integrals
(:mod:`perispec.oracle`, with its twin ``quadrature_bundle``), and enumerates the resulting operator spectrum on
periodic boxes (:mod:`perispec.spectrum`).  The series engine lives in
:mod:`perispec.hypergeom`; the ``perispec`` command (:mod:`perispec.cli`)
exposes figure data, a verification sweep, and spectrum tables.

The oracle's names are re-exported lazily (PEP 562): ``perispec.oracle``
is imported on first access to one of them, so ``import perispec`` and
the closed-form paths do not pay for it.
"""

from .errors import (AccuracyNotReached, DegenerateEigenvalue, InvalidParams,
                     NonConvergent, PerispecError, SingularMode,
                     ZeroFrequency, ZeroMode)
from .hypergeom import (EvalResult, PfqParams, f_form_derivatives,
                        merge_linear_combination, pfq, pfq_batch, pfq_many,
                        pfq_minus_one, pochhammer)
from .multipliers import (EigenDecomposition, Material, NonlocalParams,
                          TensorMultiplier, closed_bundle, eigen_decomposition,
                          eigenvalue_parallel, eigenvalue_parallel_split,
                          eigenvalue_transverse, eigenvalues,
                          eigenvalues_by_material, eigenvalues_many,
                          gradient_factor,
                          navier_eigenvalues, navier_multiplier,
                          orthonormal_basis,
                          scalar_multiplier, scalar_multiplier_gradient,
                          scaling_constant, tensor_multiplier,
                          tensor_multiplier_bond, tensor_multiplier_state)
from .spectrum import (FourierField, SpectrumRecord, SpectrumTable,
                       TorusSpec, apply_operator, eigenfield,
                       frequency_vector, solve_periodic, spectrum_table)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset((
    "QuadratureSpec", "apply_to_plane_wave", "lambda1_quad", "lambda2_quad",
    "moment_identity_check", "quadrature_bundle", "quadrature_bundles",
    "scalar_multiplier_quad", "tensor_bond_quad", "tensor_state_quad"))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

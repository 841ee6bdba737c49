"""The closed forms' reach: |nu| delta <= MAX_PHASE, checked in one place.

Every closed-form entry point, and the torus and figure layers built on
them, evaluates at |nu| = MAX_PHASE / delta exactly and raises
InvalidParams naming MAX_PHASE at the next float above it, before any
series is summed.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import perispec.multipliers as mt
import perispec.spectrum
from perispec.cli import FigureJob, figure_values
from perispec.errors import InvalidParams
from perispec.multipliers import MAX_PHASE, Material, NonlocalParams
from perispec.spectrum import (FourierField, TorusSpec, apply_operator,
                               frequency_vector, solve_periodic,
                               spectrum_table)


def _axis(n, r):
    nu = np.zeros(n)
    nu[0] = r
    return nu


def _figure(p, mat, r):
    job = FigureJob(p.n, mat.mu, (mat.lambda_star,), p.delta, p.beta, 0.0, r,
                    samples=2)
    return figure_values([job])


# each evaluates at |nu| = r, along the first axis where it takes a vector
CLOSED_FORMS = {
    "scalar_multiplier": lambda p, m, r: mt.scalar_multiplier(p, _axis(p.n, r)),
    "gradient_factor": lambda p, m, r: mt.gradient_factor(p, r),
    "scalar_multiplier_gradient":
        lambda p, m, r: mt.scalar_multiplier_gradient(p, _axis(p.n, r)),
    "tensor_multiplier_bond":
        lambda p, m, r: mt.tensor_multiplier_bond(p, m, _axis(p.n, r)),
    "tensor_multiplier_state":
        lambda p, m, r: mt.tensor_multiplier_state(p, m, _axis(p.n, r)),
    "tensor_multiplier":
        lambda p, m, r: mt.tensor_multiplier(p, m, _axis(p.n, r)),
    "closed_bundle": lambda p, m, r: mt.closed_bundle(p, m, _axis(p.n, r)),
    "eigenvalue_parallel":
        lambda p, m, r: mt.eigenvalue_parallel(p, m, _axis(p.n, r)),
    "eigenvalue_parallel_split":
        lambda p, m, r: mt.eigenvalue_parallel_split(p, m, _axis(p.n, r)),
    "eigenvalue_transverse":
        lambda p, m, r: mt.eigenvalue_transverse(p, m, _axis(p.n, r)),
    "eigen_decomposition":
        lambda p, m, r: mt.eigen_decomposition(p, m, _axis(p.n, r)),
    "eigenvalues": lambda p, m, r: mt.eigenvalues(p, m, _axis(p.n, r)[None]),
    "eigenvalues_by_material":
        lambda p, m, r: mt.eigenvalues_by_material(p, [m],
                                                   _axis(p.n, r)[None]),
    "eigenvalues_many":
        lambda p, m, r: mt.eigenvalues_many([(p, [m], _axis(p.n, r)[None])]),
    "figure": _figure,
}

# each evaluates the one-dimensional torus whose mode k = 1 has |nu| = r
TORUS_FORMS = {
    "spectrum_table": lambda p, m, t: spectrum_table(p, m, t, 1),
    "apply_operator":
        lambda p, m, t: apply_operator(FourierField(1, {(1,): [1.0]}), p, m, t),
    "solve_periodic":
        lambda p, m, t: solve_periodic(FourierField(1, {(1,): [1.0]}), p, m, t),
}


def _torus(r):
    """A one-dimensional torus whose lattice frequency 2 pi / l is r, or None.

    Not every float is 2 pi / l for a float l; the few lengths around
    2 pi / r are tried.
    """
    length = 2.0 * math.pi / r
    for _ in range(4):
        torus = TorusSpec((length,))
        got = float(frequency_vector((1,), torus)[0])
        if got == r:
            return torus
        length = math.nextafter(length, math.inf if got > r else 0.0)
    return None


@st.composite
def problems(draw, n):
    delta = draw(st.floats(1e-3, 1e3), label="delta")
    beta = draw(st.floats(-2.0, n + 2 - 0.05), label="beta")
    mu = draw(st.floats(0.5, 3.0), label="mu")
    lambda_star = draw(st.floats(-mu, 3.0), label="lambda_star")
    return NonlocalParams(n, delta, beta), Material(mu, lambda_star)


def _no_series(*args, **kwargs):
    raise AssertionError("a series was summed past the reach")


@pytest.mark.parametrize("name", CLOSED_FORMS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_closed_forms_reach_max_phase_exactly(name, data):
    n = data.draw(st.integers(1, 4), label="n")
    p, mat = data.draw(problems(n))
    evaluate = CLOSED_FORMS[name]
    r = MAX_PHASE / p.delta
    evaluate(p, mat, r)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mt, "_sums", _no_series)
        with pytest.raises(InvalidParams, match="MAX_PHASE"):
            evaluate(p, mat, math.nextafter(r, math.inf))


@pytest.mark.parametrize("name", TORUS_FORMS)
@settings(max_examples=10, deadline=None)
@given(problem=problems(1))
def test_torus_reaches_max_phase_exactly(name, problem):
    p, mat = problem
    r = MAX_PHASE / p.delta
    inside, past = _torus(r), _torus(math.nextafter(r, math.inf))
    assume(inside is not None and past is not None)
    evaluate = TORUS_FORMS[name]
    evaluate(p, mat, inside)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mt, "_sums", _no_series)
        with pytest.raises(InvalidParams, match="MAX_PHASE"):
            evaluate(p, mat, past)


def test_one_constant():
    assert perispec.spectrum.MAX_PHASE is MAX_PHASE


def test_library_call_past_the_reach_is_refused():
    # it used to return lambda1 = -8682.43 from outside the tested range
    with pytest.raises(InvalidParams, match=r"reaches 100000.*MAX_PHASE"):
        mt.closed_bundle(NonlocalParams(2, 1.0, 2.5), Material(1.0, 0.5),
                         [1e5, 0.0])

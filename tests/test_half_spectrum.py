"""Half-spectrum (rfftn/irfftn) routes against a full complex-FFT reference.

The reference below is the textbook route: full ``fftn``, full symbols
(``oracles.reference_symbols``), full ``ifftn``, real part where the
output is real. It is kept apart from the package, so the production
transforms are checked against code they do not share.
"""

import math

import numpy as np
import pytest
from conftest import random_hermitian, random_pd_metric
from oracles import reference_symbols

from toruspos import (
    LineBundleMetric,
    ScalarField,
    TorusGeometry,
    complex_hessian,
    evaluate_expression,
    poisson_solve,
    scalar_curvature,
)
from toruspos.lattice import _Spectrum
from toruspos.normalizer import _hessian_trace

RTOL = 1e-13

BAND_LIMITED = {
    1: "0.7*sin(3*x1)*cos(y1) - 0.2*cos(5*y1) + 0.1*sin(x1)*sin(2*y1)",
    2: "0.5*sin(x1)*cos(2*y2) + 0.3*cos(3*x2) - 0.2*sin(y1)*sin(x2)",
    3: "0.4*sin(x1)*cos(y3) + 0.3*cos(x2)*sin(y1) - 0.2*sin(y2)*cos(x3)",
}

CASES = [(1, 64), (2, 8), (3, 4)]


def _reference_hessian(values, geom):
    a = reference_symbols(geom)
    n = geom.complex_dim
    vhat = np.fft.fftn(values)
    out = np.empty((*geom.grid_shape, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            entry = np.fft.ifftn(-a[j] * np.conj(a[k]) * vhat)
            out[..., j, k] = entry.real if j == k else entry
    return out


def _reference_trace(values, W, geom):
    return np.einsum("kj,...jk->...", W, _reference_hessian(values, geom)).real


def _reference_poisson(values, W, geom):
    a = reference_symbols(geom)
    sym = -np.einsum("k...,kj,j...->...", np.conj(a), W, a).real
    live = np.sum(np.abs(a) ** 2, axis=0) > 0.0
    ghat = np.fft.fftn(values)
    fhat = np.zeros_like(ghat)
    fhat[live] = ghat[live] / sym[live]
    f = np.fft.ifftn(fhat).real
    return f - math.fsum(f.ravel()) / f.size


def _weights(geom):
    rng = np.random.default_rng(geom.complex_dim)
    text = BAND_LIMITED[geom.complex_dim]
    band = ScalarField(geom, evaluate_expression(text, geom))
    noise = ScalarField(geom, rng.standard_normal(geom.grid_shape))
    return {"band-limited": band, "white-noise": noise}


def _assert_close(got, want):
    scale = float(np.max(np.abs(want)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - want))) <= RTOL * scale


@pytest.mark.parametrize("kind", ["band-limited", "white-noise"])
@pytest.mark.parametrize("n,samples", CASES)
def test_complex_hessian_matches_full_transform(n, samples, kind):
    geom = TorusGeometry.regular(n, samples)
    phi = _weights(geom)[kind]
    _assert_close(complex_hessian(phi).values, _reference_hessian(phi.values, geom))


@pytest.mark.parametrize("kind", ["band-limited", "white-noise"])
@pytest.mark.parametrize("n,samples", CASES)
def test_hessian_trace_matches_full_transform(n, samples, kind):
    geom = TorusGeometry.regular(n, samples)
    W = np.linalg.inv(random_pd_metric(np.random.default_rng(5), geom).matrix)
    f = _weights(geom)[kind]
    got = _hessian_trace(_Spectrum.of(f), W)
    _assert_close(got, _reference_trace(f.values, W, geom))


@pytest.mark.parametrize("kind", ["band-limited", "white-noise"])
@pytest.mark.parametrize("n,samples", CASES)
def test_scalar_curvature_matches_full_transform(n, samples, kind):
    geom = TorusGeometry.regular(n, samples)
    rng = np.random.default_rng(6)
    omega = random_pd_metric(rng, geom)
    W = np.linalg.inv(omega.matrix)
    phi = _weights(geom)[kind]
    L = LineBundleMetric(geom, random_hermitian(rng, n), phi)
    want = np.trace(W @ L.r_const).real + _reference_trace(phi.values, W, geom)
    _assert_close(scalar_curvature(L, omega).values, want)


@pytest.mark.parametrize("kind", ["band-limited", "white-noise"])
@pytest.mark.parametrize("n,samples", CASES)
def test_poisson_solve_matches_full_transform(n, samples, kind):
    geom = TorusGeometry.regular(n, samples)
    omega = random_pd_metric(np.random.default_rng(7), geom)
    W = np.linalg.inv(omega.matrix)
    g = _weights(geom)[kind].values
    g = g - math.fsum(g.ravel()) / g.size
    f = poisson_solve(ScalarField(geom, g), omega)
    _assert_close(f.values, _reference_poisson(g, W, geom))

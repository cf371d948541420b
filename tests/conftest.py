"""Shared random-instance builders for the test suite."""

import numpy as np
import pytest

from toruspos import LineBundleMetric, MetricField, TorusGeometry, constant_metric


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def hermitian_with_eigs(rng: np.random.Generator, eigs) -> np.ndarray:
    eigs = np.asarray(eigs, dtype=np.float64)
    Q = random_unitary(rng, eigs.size)
    mat = (Q * eigs) @ Q.conj().T
    return 0.5 * (mat + mat.conj().T)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0):
    eigs = scale * rng.uniform(-1.0, 1.0, size=n)
    return hermitian_with_eigs(rng, eigs)


def random_pd_matrix(rng: np.random.Generator, n: int, lo=0.5, hi=2.0):
    eigs = rng.uniform(lo, hi, size=n)
    return hermitian_with_eigs(rng, eigs)


def random_pd_metric(
    rng: np.random.Generator, geom: TorusGeometry, lo=0.5, hi=2.0
) -> MetricField:
    return constant_metric(geom, random_pd_matrix(rng, geom.complex_dim, lo, hi))


def bundle_with_pencil_eigs(
    rng: np.random.Generator,
    geom: TorusGeometry,
    omega: MetricField,
    eigs,
    phi_text: str = "0",
) -> LineBundleMetric:
    """Bundle whose constant part has prescribed pencil eigenvalues vs omega.

    Builds r_const = Omega^{1/2} U diag(eigs) U* Omega^{1/2}, so the
    pencil (r_const, Omega) has exactly ``eigs`` as spectrum.
    """
    n = geom.complex_dim
    const = omega.values.reshape(-1, n, n)[0]
    d, Q = np.linalg.eigh(const)
    root = (Q * np.sqrt(d)) @ Q.conj().T
    core = hermitian_with_eigs(rng, eigs)
    r_const = root @ core @ root
    r_const = 0.5 * (r_const + r_const.conj().T)
    return LineBundleMetric.from_expression(geom, r_const, phi_text)


#: The package's grid transform helpers and numpy's transforms, as counted
#: by the ``transform_calls`` fixture.
TRANSFORM_HELPERS = ("_rfftn", "_irfftn")
NUMPY_TRANSFORMS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")


@pytest.fixture
def transform_calls(monkeypatch):
    """A list that records, by name, every grid transform the package runs
    from here on: its two helpers, which only lattice.py names
    (tests/test_imports.py), and numpy's transforms (named
    ``np.fft.<name>``)."""
    import toruspos.lattice as lattice_module

    calls = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in TRANSFORM_HELPERS:
        original = getattr(lattice_module, name)
        monkeypatch.setattr(lattice_module, name, recording(name, original))
    for name in NUMPY_TRANSFORMS:
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, recording(f"np.fft.{name}", original))
    return calls

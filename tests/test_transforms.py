"""The package's grid transforms against numpy's FFT.

Grids whose axes are all at most ``_DFT_MAX_AXIS`` long are transformed
by dense DFT-matrix products; longer ones by ``np.fft``. Both sides of
that crossover are drawn here, and numpy's FFT is the reference.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruspos import (
    LineBundleMetric,
    TorusGeometry,
    constant_metric,
    normalize_scalar_curvature,
)
from toruspos.lattice import _WORK, _dft, _irfftn, _rfftn

#: As in test_half_spectrum.py: error relative to the reference's max |entry|.
RTOL = 1e-13

SRC = Path(__file__).resolve().parents[1] / "src"


def _geometry(shape):
    return TorusGeometry(len(shape) // 2, shape, (1.0,) * len(shape))


def _assert_close(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


@st.composite
def _shapes(draw):
    """2 or 4 even axes from 4 to 64 points, at most 2^16 points in all."""
    axes = draw(st.sampled_from([2, 4]))
    lengths = st.integers(min_value=2, max_value=32).map(lambda k: 2 * k)
    shape = tuple(draw(st.lists(lengths, min_size=axes, max_size=axes)))
    if np.prod(shape) > 1 << 16:
        shape = shape[:2] + (4,) * (axes - 2)
    return shape


@settings(max_examples=60, deadline=None)
@given(_shapes(), st.integers(min_value=0, max_value=2**32 - 1))
@example((4, 8, 32, 6), 0)
@example((8, 8, 8, 8, 8, 8), 1)
@example((4, 64), 2)
@example((64, 4, 4, 8), 3)
def test_transforms_match_numpy(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    axes = tuple(range(len(shape)))
    half = np.fft.rfftn(values)
    _assert_close(_rfftn(values), half)
    inverse = np.fft.irfftn(half, s=shape, axes=axes)
    _assert_close(_irfftn(half, _geometry(shape)), inverse)


@pytest.mark.parametrize("shape", [(8, 8, 8, 8), (4, 8, 32, 6), (64, 64)])
def test_inverse_ignores_the_imaginary_dc_and_nyquist_parts(shape):
    """As numpy's irfftn does, on the half axis; the other axes' bins pair up."""
    rng = np.random.default_rng(4)
    half = np.fft.rfftn(rng.standard_normal(shape))
    noisy = half.copy()
    noisy[..., 0] += 1j * rng.standard_normal(shape[:-1])
    noisy[..., -1] += 1j * rng.standard_normal(shape[:-1])
    geom = _geometry(shape)
    ref = np.fft.irfftn(noisy, s=shape, axes=tuple(range(len(shape))))
    _assert_close(_irfftn(noisy, geom), ref)


@pytest.mark.parametrize("shape", [(8, 8, 8, 8), (4, 8, 32, 6), (64, 64)])
def test_zero_input_gives_exact_zeros(shape):
    zeros = np.zeros(shape)
    assert not np.any(_rfftn(zeros))
    half = np.zeros((*shape[:-1], shape[-1] // 2 + 1), dtype=np.complex128)
    assert not np.any(_irfftn(half, _geometry(shape)))


@pytest.mark.parametrize("s", range(4, 34, 2))
def test_dft_matrices_come_from_an_exactly_symmetric_root_table(s):
    dft = _dft(s)
    roots = dft.forward[1]
    m = np.arange(1, s)
    assert np.array_equal(dft.forward, dft.forward.T)
    assert np.array_equal(roots[s - m], np.conj(roots[m]))
    assert roots[0] == 1.0 and roots[s // 2] == -1.0
    if s % 4 == 0:
        assert roots[s // 4] == -1j
    if s % 8 == 0:
        assert roots[s // 8].real == -roots[s // 8].imag
    assert np.max(np.abs(roots - np.exp(-2j * np.pi * np.arange(s) / s))) < 2e-15
    assert not any(matrix.flags.writeable for matrix in vars(dft).values())


_DIGEST = """
import hashlib
import numpy as np
from toruspos.lattice import _irfftn, _rfftn, TorusGeometry

digest = hashlib.sha256()
for shape in [(8,) * 6, (16,) * 4]:
    rng = np.random.default_rng(5)
    values = rng.standard_normal(shape)
    half = _rfftn(values)
    geom = TorusGeometry(len(shape) // 2, shape, (1.0,) * len(shape))
    for out in (half, _irfftn(half, geom)):
        digest.update(np.ascontiguousarray(out).tobytes())
print(digest.hexdigest())
"""


def _digest_with_blas_threads(threads: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout.strip()


def test_transforms_are_bit_identical_across_blas_thread_counts():
    assert _digest_with_blas_threads("1") == _digest_with_blas_threads("2")


#: The product-route grids of the benchmark: n = 3 at 8^6 and n = 2 at 16^4.
PRODUCT_GRIDS = [(8,) * 6, (16,) * 4]


def _calls(shape, seed=0):
    """The two transforms of one random grid, as name -> zero-argument call."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    half = np.fft.rfftn(values)
    geom = _geometry(shape)
    return {
        "rfftn": lambda: _rfftn(values),
        "irfftn": lambda: _irfftn(half, geom),
    }


def _traced_peak(call):
    """(result, traced peak above the starting level) of ``call()``."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


@pytest.mark.parametrize("shape", PRODUCT_GRIDS)
@pytest.mark.parametrize("name", ["rfftn", "irfftn"])
def test_warm_transform_allocates_only_its_output(shape, name):
    """Every pass between input and output goes through the thread's work
    buffer, so a warmed-up transform allocates its output and nothing of
    grid size besides (a fresh array per pass adds 1 to 2 output sizes)."""
    call = _calls(shape)[name]
    call()  # grows the work buffer and fills the DFT matrix cache
    out, peak = _traced_peak(call)
    assert peak <= out.nbytes + 64 * 1024


def test_warm_weighted_normalize_peak_stays_within_six_fields():
    """Spectra, symbol, fields and the transforms' passes of one weighted
    n = 3 normalize take at most six 8^6 real fields above the start."""
    geom = TorusGeometry.regular(3, 8)
    L = LineBundleMetric.from_expression(
        geom,
        np.diag([1.0, -0.5, 0.7]).astype(complex),
        "0.3*sin(x1)*cos(y2) + 0.2*cos(2*x3)*sin(y1)",
    )
    omega = constant_metric(
        geom, np.array([[1.5, 0.2j, 0], [-0.2j, 1.0, 0.1], [0, 0.1, 0.8]])
    )
    normalize_scalar_curvature(L, omega)
    _, peak = _traced_peak(lambda: normalize_scalar_curvature(L, omega))
    assert peak <= 6 * 8 * geom.num_points


def test_two_threads_give_the_serial_results_bit_for_bit():
    serial = {
        shape: {name: call().tobytes() for name, call in _calls(shape).items()}
        for shape in PRODUCT_GRIDS
    }
    mismatches, finished = [], []

    def loop(shape):
        calls = _calls(shape)
        kept = {name: call() for name, call in calls.items()}
        for _ in range(6):
            for name, call in calls.items():
                if call().tobytes() != serial[shape][name]:
                    mismatches.append((shape, name))
        # Results returned before later transforms are still intact.
        for name, out in kept.items():
            if out.tobytes() != serial[shape][name]:
                mismatches.append((shape, name, "kept"))
        finished.append(shape)

    threads = [threading.Thread(target=loop, args=(s,)) for s in PRODUCT_GRIDS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not mismatches and len(finished) == 2


def test_results_survive_a_larger_grid_growing_the_work_buffer():
    """In a new thread, so that the buffer starts empty and must grow."""
    survived = []

    def work():
        small = {name: call() for name, call in _calls((16,) * 4).items()}
        before = {name: out.tobytes() for name, out in small.items()}
        size = _WORK.buffer.size
        large = [call() for call in _calls((8,) * 6).values()]
        assert _WORK.buffer.size > size
        assert not any(
            np.shares_memory(out, _WORK.buffer) for out in [*small.values(), *large]
        )
        survived.append(all(small[k].tobytes() == before[k] for k in small))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert survived == [True]

"""Flat-torus grids, field containers, and spectral calculus.

The torus ``C^n / Lambda`` is sampled on a regular rectangular grid. Real
coordinates are interleaved as ``(x_1, y_1, ..., x_n, y_n)`` with
``z_j = x_j + i y_j``: array axis ``2j`` carries ``x_{j+1}`` and axis
``2j+1`` carries ``y_{j+1}``. Every differential operator is evaluated by
frequency-space multipliers, so derivatives of band-limited data are exact
to round-off. Wirtinger conventions, the Nyquist rule, and the volume
normalization are spelled out in CONVENTIONS.md at the repository root.

All operations are pure functions of their inputs. Pointwise work is
vectorized over grid points and global reductions use either a fixed
traversal order or exactly rounded summation, so repeated runs are
bit-stable.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    GeometryMismatchError,
    InternalInvariantError,
    MeanNotZeroError,
    NonConstantMetricError,
)
from .planes import _cholesky, _entries, _gate_bounds, _join, _split, _tiles

TWO_PI = 2.0 * math.pi

#: Relative tolerance for the Hermitian-symmetry invariant of matrix fields.
HERMITIAN_RTOL = 1e-12

#: Relative tolerance on the grid mean of an elliptic right-hand side.
MEAN_ZERO_RTOL = 1e-8

#: Entries per block of ``compensated_sum``: its two float64 work buffers
#: take 512 KB, which stays in a core's L2 cache.
_SUM_BLOCK = 1 << 15

#: Largest core whose entries ``compensated_sum`` takes as its exact
#: partials instead of extracting them. The extraction's fixed cost is a
#: few dozen numpy calls; on one core of an Intel Xeon (numpy 2.4) a
#: 32-entry core took 11.7 us direct against 19.8 us extracted, a
#: 64-entry core 22.9 against 19.4 us.
_SUM_DIRECT = 32

#: Longest axis for which the grid transforms (``_rfftn`` and its kin)
#: run as dense DFT-matrix products, one BLAS call per axis; an array with
#: a longer axis takes numpy's FFT. On axes of 8 to 32 points the
#: products are 1.5 to 5 times faster than numpy's per-row FFTs; at 64
#: they cost about the same, and at 256 the FFT is about 4 times faster.
_DFT_MAX_AXIS = 32


@dataclass(frozen=True)
class TorusGeometry:
    """Discretized flat torus ``C^n / (periods * Z^{2n})``.

    Parameters
    ----------
    complex_dim : int
        Complex dimension ``n >= 1``.
    grid_shape : tuple of int
        ``2n`` samples-per-axis counts. Each entry must be even and at
        least 4; the spectral scheme needs an unambiguous Nyquist mode.
    periods : tuple of float
        ``2n`` positive real periods, one per real coordinate.
    """

    complex_dim: int
    grid_shape: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.complex_dim
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"complex_dim must be a positive integer, got {n!r}")
        grid = tuple(int(s) for s in self.grid_shape)
        periods = tuple(float(p) for p in self.periods)
        object.__setattr__(self, "grid_shape", grid)
        object.__setattr__(self, "periods", periods)
        if len(grid) != 2 * n:
            raise ValueError(f"grid_shape needs {2 * n} axes, got {len(grid)}")
        if len(periods) != 2 * n:
            raise ValueError(f"periods needs {2 * n} entries, got {len(periods)}")
        if any(s < 4 or s % 2 != 0 for s in grid):
            raise ValueError(f"grid axes must be even and >= 4, got {grid}")
        if any(not (p > 0 and math.isfinite(p)) for p in periods):
            raise ValueError(f"periods must be positive finite reals, got {periods}")

    @classmethod
    def regular(
        cls,
        complex_dim: int,
        samples: int | tuple[int, ...],
        period: float | tuple[float, ...] = TWO_PI,
    ) -> "TorusGeometry":
        """Build a geometry with uniform (or per-axis) samples and periods."""
        axes = 2 * complex_dim
        grid = (samples,) * axes if isinstance(samples, int) else tuple(samples)
        periods = (
            (float(period),) * axes
            if isinstance(period, (int, float))
            else tuple(period)
        )
        return cls(complex_dim, grid, periods)

    @cached_property
    def num_points(self) -> int:
        return math.prod(self.grid_shape)

    @cached_property
    def cell_volume(self) -> float:
        """Lebesgue volume of one grid cell."""
        return math.prod(p / s for p, s in zip(self.periods, self.grid_shape))

    @cached_property
    def volume(self) -> float:
        """Total Lebesgue volume of the torus."""
        return math.prod(self.periods)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Sample positions along one real axis (length ``grid_shape[axis]``)."""
        return self._axes[axis].copy()

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        """The sample positions of every axis, read-only: expressions are
        evaluated on them."""
        return tuple(
            _owned(p * np.arange(s) / s) for p, s in zip(self.periods, self.grid_shape)
        )

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per real axis, each of grid shape."""
        oned = [self.axis_coordinates(a) for a in range(2 * self.complex_dim)]
        return list(np.meshgrid(*oned, indexing="ij", sparse=False))


def _require_same_geometry(*objs) -> TorusGeometry:
    geom = objs[0].geometry
    for other in objs[1:]:
        if other.geometry != geom:
            raise GeometryMismatchError(
                f"geometry mismatch: {geom} vs {other.geometry}"
            )
    return geom


@lru_cache(maxsize=32)
def _dz_symbols(geom: TorusGeometry) -> tuple[np.ndarray, ...]:
    """Fourier symbols of d/dz_j on the half spectrum of ``rfftn``, one
    read-only array per j.

    Each axis has the angular wavenumbers ``2 pi fftfreq`` with the Nyquist
    entry zeroed, which keeps odd symmetry of the first-derivative symbol
    on even grids: that is what makes the complex Hessian of a real field
    exactly Hermitian. With the convention d/dz = (d/dx - i d/dy) / 2, a
    plane wave ``exp(i(k_x x + k_y y))`` picks up the factor
    ``(i/2)(k_x - i k_y)``. Symbol j varies only along axes 2j and 2j + 1,
    so it is stored with length 1 on every other axis and broadcasts
    against a spectrum whose last axis keeps its first ``s // 2 + 1`` bins.
    """
    axes = len(geom.grid_shape)

    def along(axis: int) -> np.ndarray:
        s = geom.grid_shape[axis]
        k = TWO_PI * np.fft.fftfreq(s, d=geom.periods[axis] / s)
        k[s // 2] = 0.0
        shape = [1] * axes
        shape[axis] = -1
        return k[: s // 2 + 1 if axis == axes - 1 else s].reshape(shape)

    out = []
    for j in range(geom.complex_dim):
        symbol = 0.5j * (along(2 * j) - 1j * along(2 * j + 1))
        symbol.setflags(write=False)
        out.append(symbol)
    return tuple(out)


def _spectrum_shape(symbols: tuple[np.ndarray, ...]) -> tuple[int, ...]:
    return np.broadcast_shapes(*(a.shape for a in symbols))


@lru_cache(maxsize=32)
def _dead_modes(geom: TorusGeometry) -> np.ndarray:
    """Half-spectrum modes where every d/dz symbol vanishes (read-only).

    These are the constant mode and the pure-Nyquist combinations, which
    carry no derivative information on an even grid.
    """
    symbols = _dz_symbols(geom)
    dead = np.ones(_spectrum_shape(symbols), dtype=bool)
    for a in symbols:
        dead &= a == 0.0
    dead.setflags(write=False)
    return dead


def _unit_root(m: int, s: int) -> complex:
    """``exp(-2 pi i m / s)`` for even ``s``, from the first octant by exact
    reflections: ``m = s/2`` gives -1, ``m = s/4`` gives -i, ``m`` and
    ``s - m`` give conjugates, and cos equals sin at ``m = s/8``."""
    m %= s
    if 2 * m > s:
        return _unit_root(s - m, s).conjugate()
    if 4 * m > s:  # pi minus the angle of s/2 - m
        return -_unit_root(s // 2 - m, s).conjugate()
    if 8 * m > s:  # pi/2 minus the angle of (s - 4m) / (4s)
        r = _unit_root(s - 4 * m, 4 * s)
        return complex(-r.imag, -r.real)
    if 8 * m == s:
        return complex(math.sqrt(0.5), -math.sqrt(0.5))
    x = TWO_PI * m / s
    return complex(math.cos(x), -math.sin(x))


@dataclass(frozen=True)
class _Dft:
    """Read-only transform matrices of one even axis length ``s``, ``h = s//2 + 1``:
    a grid's axes are even, and the transforms skip an axis of length 1
    instead of asking for its matrices.

    ``forward`` is the DFT matrix ``F`` and ``inverse`` is ``conj(F)/s``.
    The real matrices act on float views: ``half`` (s x 2h) maps a real
    axis to interleaved (re, im) columns of the half spectrum, and
    ``half_inverse`` (2h x s) maps interleaved half-spectrum bins to the
    real axis. Its rows for the imaginary parts of the DC and Nyquist
    bins are zero (the root table gives exact zero sines there), so those
    parts are ignored, as numpy's ``irfft`` does.
    """

    forward: np.ndarray
    inverse: np.ndarray
    half: np.ndarray
    half_inverse: np.ndarray


@lru_cache(maxsize=None)  # one entry per even length up to _DFT_MAX_AXIS
def _dft(s: int) -> _Dft:
    roots = np.array([_unit_root(m, s) for m in range(s)])
    forward = roots[np.outer(np.arange(s), np.arange(s)) % s]
    h = s // 2 + 1
    half = forward[:, :h].copy()
    weights = np.full(h, 2.0 / s)
    weights[[0, -1]] = 1.0 / s
    matrices = _Dft(
        forward,
        np.conj(forward) / s,
        half.view(np.float64),
        (half * weights).view(np.float64).T,
    )
    for matrix in vars(matrices).values():
        matrix.setflags(write=False)
    return matrices


#: Per-thread transform work space: see ``_work``.
_WORK = threading.local()


def _work(entries: int) -> np.ndarray:
    """The first ``entries`` complex entries of this thread's work buffer.

    The product-route transforms write their intermediate passes here, so
    that a grid-sized pass reuses pages already mapped instead of faulting
    in a fresh allocation that the allocator hands back to the system on
    free. There is one buffer per thread; it grows to the largest transform
    seen, never shrinks, and no transform returns a view of it.
    """
    buffer = getattr(_WORK, "buffer", None)
    if buffer is None or buffer.size < entries:
        _WORK.buffer = buffer = None  # let the smaller one go first
        _WORK.buffer = buffer = np.empty(entries, dtype=np.complex128)
    return buffer[:entries]


def _alternate(last: np.ndarray, other: np.ndarray, passes: int) -> list:
    """Targets of ``passes`` successive passes, alternating between the two
    arrays so that each pass reads one and writes the other, and the last
    pass writes ``last``."""
    return [last if (passes - i) % 2 else other for i in range(passes)]


def _products(y: np.ndarray, matrices, targets) -> np.ndarray:
    """Contract the leading axis of ``y`` with each matrix in turn and move
    it to the end, one 2-D product each, written into the flat complex
    arrays ``targets`` (one per matrix): after a matrix per axis, the last
    target holds the result in ``y``'s own axis order."""
    for matrix, target in zip(matrices, targets, strict=True):
        out = target.reshape(y.size // matrix.shape[0], -1)
        np.matmul(y.reshape(matrix.shape[0], -1).T, matrix, out=out)
        y = target
    return y


def _rfftn(values: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn`` of a real array of the grid's rank, a grid or a
    core (``_core``) whose last axis is kept whole: the last axis keeps its
    first ``s // 2 + 1`` bins. An axis of length 1 is its own DFT, so it
    is left as it is, with no pass over the array."""
    *lead, s = values.shape
    axes = [a for a, t in enumerate(values.shape) if t > 1]
    if max(values.shape) > _DFT_MAX_AXIS:
        return np.fft.rfftn(values, axes=axes)
    h = s // 2 + 1
    out = np.empty((*lead, h), dtype=np.complex128)
    # Every pass alternates between out and the work buffer; the last
    # product lands in the buffer, and the transpose copy writes out.
    first, *rest = _alternate(_work(out.size), out.reshape(-1), len(axes))
    half = first.view(np.float64).reshape(-1, 2 * h)
    np.matmul(values.reshape(-1, s), _dft(s).half, out=half)
    y = _products(first, [_dft(t).forward for t in lead if t > 1], rest)
    np.copyto(out.reshape(-1, h), y.reshape(h, -1).T)
    return out


def _irfftn(spectrum: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """The real array whose ``rfftn`` half spectrum is ``spectrum``, on the
    grid of ``geom``: its leading axes are the spectrum's (the grid's, or
    a core's, length 1 on some), its last the grid's. Axes of length 1
    are left as they are (``_rfftn``)."""
    s = geom.grid_shape[-1]
    shape = (*spectrum.shape[:-1], s)
    axes = [a for a, t in enumerate(shape) if t > 1]
    if max(shape) > _DFT_MAX_AXIS:
        return np.fft.irfftn(spectrum, s=[shape[a] for a in axes], axes=axes)
    h = s // 2 + 1
    # The real output cannot hold a complex pass, so the passes and the
    # transpose copy alternate between the two halves of the work buffer.
    size = spectrum.size
    work = _work(2 * size)
    *passes, last = _alternate(work[:size], work[size:], len(axes))
    inverses = [_dft(t).inverse for t in shape[:-1] if t > 1]
    y = _products(spectrum, inverses, passes)
    np.copyto(last.reshape(-1, h), y.reshape(h, -1).T)
    half = last.view(np.float64).reshape(-1, 2 * h)
    out = np.empty(shape)
    np.matmul(half, _dft(s).half_inverse, out=out.reshape(-1, s))
    return out


def _hessian_multiplier(
    symbols: tuple[np.ndarray, ...], j: int, k: int
) -> np.ndarray:
    """Fourier multiplier ``-a_j conj(a_k)`` of complex Hessian entry (j, k).

    ``symbols`` are the d/dz symbols ``a`` at a spectrum's bins
    (``_Spectrum.symbols``); the result broadcasts against its values.
    The diagonal multiplier ``-|a_j|^2`` is returned real. Every
    multiplier is even in the mode, the product of two odd symbols.
    """
    if j == k:
        return -np.abs(symbols[j]) ** 2
    return -symbols[j] * np.conj(symbols[k])


@dataclass(frozen=True)
class _Modes:
    """Exact Fourier modes of a real trigonometric polynomial on a grid.

    The field is ``constant + sum_i 2 Re(c_i e_i)`` with ``c_i`` the
    ``coefficients`` and ``e_i(x) = exp(2 pi i sum_a m_a x_a / P_a)`` for
    the integer wavevector ``m`` in row i of ``wavevectors`` (one entry
    per grid axis). Each row stands for the conjugate pair ``(m, -m)``;
    its last nonzero entry is positive, and every entry lies strictly
    below the Nyquist mode of its axis, so it indexes the half spectrum
    of ``rfftn`` directly.

    A table has at most ``MAX_PAIRS`` pairs. A field's spectrum
    (``_Spectrum``) is its table when it has one, written out one grid per
    pair and output entry instead of a fixed number of transforms; the
    writes were measured to win up to this many pairs on every operator
    (CONVENTIONS, "The two forms of a spectrum"). A field with more pairs
    has no table, and its spectrum is the half spectrum of its core.
    """

    MAX_PAIRS: ClassVar[int] = 4

    constant: float
    wavevectors: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.wavevectors.setflags(write=False)
        self.coefficients.setflags(write=False)

    @classmethod
    def of(cls, axes: int, constant: float, terms: dict) -> "_Modes | None":
        """The table of ``constant`` plus the pair of each ``{m: c}`` in
        ``terms`` (wavevectors of ``axes`` entries), or None past
        ``MAX_PAIRS`` pairs; modes are sorted, and zero coefficients
        dropped."""
        kept = sorted(m for m, c in terms.items() if c != 0)
        if len(kept) > cls.MAX_PAIRS:
            return None
        wavevectors = np.array(kept, dtype=np.int64).reshape(len(kept), axes)
        coefficients = np.array([terms[m] for m in kept], dtype=np.complex128)
        return cls(float(constant), wavevectors, coefficients)

    @property
    def pairs(self) -> int:
        return len(self.coefficients)

    def terms(self) -> dict:
        return dict(zip(map(tuple, self.wavevectors.tolist()), self.coefficients))

    def minus(self, other: "_Modes") -> "_Modes | None":
        """The table of this field minus ``other``'s (``of``)."""
        terms = self.terms()
        for m, c in other.terms().items():
            terms[m] = terms.get(m, 0.0) - c
        axes = self.wavevectors.shape[1]
        return _Modes.of(axes, self.constant - other.constant, terms)


@lru_cache(maxsize=256)
def _axis_wave(m: int, s: int) -> np.ndarray:
    """``exp(2 pi i m j / s)`` at the ``s`` points j of an axis, from the
    exact root table (read-only)."""
    wave = np.array([_unit_root(-m * j, s) for j in range(s)])
    wave.setflags(write=False)
    return wave


def _waves(geom: TorusGeometry, modes: _Modes, coefficients) -> list[np.ndarray]:
    """``2 Re(c e_m)`` for each mode m and its coefficient c, each spanning
    only the axes where m is nonzero (length 1 on the others), so that it
    broadcasts against the grid."""
    axes = len(geom.grid_shape)
    out = []
    for m, c in zip(modes.wavevectors.tolist(), coefficients):
        wave = np.complex128(c)
        for axis, (mode, s) in enumerate(zip(m, geom.grid_shape)):
            if mode:
                shape = [1] * axes
                shape[axis] = s
                wave = wave * _axis_wave(mode, s).reshape(shape)
        wave = np.asarray(wave.real)
        out.append(wave + wave)
    return out


def _synthesize(geom: TorusGeometry, constant, waves, dtype=np.float64) -> np.ndarray:
    """The core (see ``_core``) of ``constant`` plus the sum of ``waves``,
    arrays that broadcast against the grid: a new array on the waves'
    broadcast shape, one pass over it per wave."""
    shape = np.broadcast(*waves).shape if waves else (1,) * len(geom.grid_shape)
    out = np.empty(shape, dtype=dtype)
    if not waves:
        out[...] = constant
        return out
    np.add(waves[0], constant, out=out)
    for wave in waves[1:]:
        out += wave
    return out


class _Spectrum:
    """The spectrum of a real field, in one of two forms; every spectral
    operator reads its field through this type, and no other code knows
    which form it holds.

    * A mode table (the field's ``_modes``): ``values`` holds one
      coefficient per pair, and ``wavevectors`` are the table's.
    * Otherwise the ``rfftn`` half spectrum of the field's core (``_core``)
      with the grid's last axis kept whole, as it is the halved one:
      ``wavevectors`` is None, and ``values`` is transformed on first
      read, so a guard that needs only the bins (``_checked_symbol``) runs
      no transform. Its bins are the grid's half-spectrum bins on the
      axes the core spans and bin 0 on its length-1 axes.

    ``times`` and ``over`` overwrite ``values`` (a half spectrum in place,
    which keeps a call's peak memory), and ``grid`` synthesizes the field:
    one grid per pair for a table, ``_irfftn`` for a half spectrum.
    """

    @classmethod
    def of(cls, field: "ScalarField") -> "_Spectrum":
        """The field's table when it has one, else its half spectrum."""
        spectrum = cls()
        spectrum.geometry, spectrum._field = field.geometry, field
        table = field._modes
        spectrum.wavevectors = None if table is None else table.wavevectors
        if table is not None:
            spectrum.values = table.coefficients.copy()
        spectrum._waves = None  # a table's, kept until its values change
        return spectrum

    @cached_property
    def values(self) -> np.ndarray:
        core = self._field._data
        s = self.geometry.grid_shape[-1]
        return _rfftn(np.broadcast_to(core, (*core.shape[:-1], s)))

    @cached_property
    def _bins(self) -> tuple:
        """A half spectrum's bins in the grid's (``_dz_symbols``): all of
        an axis the core spans, bin 0 of its length-1 axes."""
        lead = self._field._data.shape[:-1]
        return tuple(slice(None) if t > 1 else slice(0, 1) for t in lead)

    @cached_property
    def symbols(self) -> tuple[np.ndarray, ...]:
        """The d/dz symbols at the bins: ``_dz_symbols``, read at each
        pair's bin for a table and at ``_bins`` for a half spectrum.
        Gathered once: the bins are the wavevectors, which ``times`` and
        ``over`` leave alone."""
        symbols = _dz_symbols(self.geometry)
        if self.wavevectors is None:
            return tuple(a[self._bins] for a in symbols)
        index = [
            self.wavevectors[:, a] % s for a, s in enumerate(self.geometry.grid_shape)
        ]
        # Each symbol is read on its own axes, index 0 on its length-1 ones.
        return tuple(
            a[tuple(i if size > 1 else 0 for i, size in zip(index, a.shape))]
            for a in symbols
        )

    @property
    def dead(self) -> np.ndarray:
        """The bins where every d/dz symbol vanishes (``_dead_modes``); every
        mode of a table is active."""
        if self.wavevectors is None:
            return _dead_modes(self.geometry)[self._bins]
        return np.zeros(len(self.wavevectors), dtype=bool)

    def times(self, multiplier: np.ndarray) -> "_Spectrum":
        """Multiply by an even multiplier at the bins, in place."""
        self.values *= multiplier
        self._waves = None
        return self

    def over(self, symbol: np.ndarray) -> "_Spectrum":
        """Divide the active bins by ``symbol`` and zero the dead ones, in
        place."""
        dead = self.dead
        np.divide(self.values, symbol, out=self.values, where=~dead)
        np.copyto(self.values, 0.0, where=dead)
        self._waves = None
        return self

    def grid(self, constant=None, multiplier=None) -> np.ndarray:
        """The core (``_core``) of the field, plus ``constant`` when one is
        given; with an even ``multiplier`` at the bins, of the field it
        maps to.

        A table writes ``2 Re(c e_m)`` once per pair, times the multiplier
        at its mode, skipping zero multipliers, on the axes of the modes
        it writes (``_synthesize``). A half spectrum gives its core, the
        grid's last axis whole, and takes one ``_irfftn``, or two for a
        complex multiplier: its real and its imaginary part are each even,
        so each maps the spectrum of a real field to a real field.
        """
        geom = self.geometry
        dtype = np.float64 if multiplier is None else multiplier.dtype
        if self.wavevectors is not None:
            if self._waves is None:
                self._waves = _waves(geom, self, self.values)
            waves = self._waves
            if multiplier is not None:
                waves = [m * w for m, w in zip(multiplier, waves) if m != 0]
            constant = 0.0 if constant is None else constant
            return _synthesize(geom, constant, waves, dtype)
        if multiplier is None:
            out = _irfftn(self.values, geom)
        elif dtype == np.float64:
            out = _irfftn(multiplier * self.values, geom)
        else:
            core = (*self.values.shape[:-1], geom.grid_shape[-1])
            out = np.empty(core, dtype=dtype)
            out.real = _irfftn(multiplier.real * self.values, geom)
            out.imag = _irfftn(multiplier.imag * self.values, geom)
        if constant is not None:
            out += constant
        return out

    def modes(self, constant: float) -> _Modes | None:
        """The table of ``constant`` plus the field of a table's values,
        None for a half spectrum."""
        if self.wavevectors is None:
            return None
        return _Modes(constant, self.wavevectors, self.values.copy())


def _core(values: np.ndarray, trailing: int = 0) -> np.ndarray:
    """The core of a grid array: the view of ``values`` with length 1 on
    each grid axis of zero stride, the axes it does not vary along. The
    last ``trailing`` axes (matrix or eigenvalue entries) are kept whole.

    A field keeps only its core, an array of the grid's rank, and its
    ``values`` is the core viewed on the grid with ``np.broadcast_to``:
    the core is read back from the strides, with no scan. A caller's
    array is scanned once, when a field is built from it
    (``_caller_core``).
    """
    strides = values.strides[: values.ndim - trailing]
    if 0 not in strides:
        return values
    return values[tuple(slice(0, 1) if s == 0 else slice(None) for s in strides)]


def _caller_core(values: np.ndarray, dtype, trailing: int = 0) -> np.ndarray:
    """A new array of ``dtype`` holding the core of a caller's grid array:
    ``_core``, cut to length 1 on every grid axis along which it equals its
    first slice bit for bit. The ``int64`` views of the floats are
    compared, so -0.0 differs from 0.0 and a NaN stays in the core for the
    finiteness gate. An axis is first probed on two entries, the one after
    the first and the one before the last, so an array that varies along
    every axis costs its copy and a few reads more. A complex array is
    refused for a real ``dtype``, which would keep its real part only."""
    if np.iscomplexobj(values) and not np.issubdtype(dtype, np.complexfloating):
        raise ValueError("field values must be real, got a complex array")
    core = np.asarray(_core(values, trailing), dtype=dtype)
    parts = (core.real, core.imag) if core.dtype.kind == "c" else (core,)
    bits = [part.view(np.int64) for part in parts]
    step = core.size
    for axis in range(core.ndim - trailing):
        length = core.shape[axis]
        step //= length  # the axis's step between entries in C order
        if length == 1 or _probe_varies(bits, step):
            continue
        head = (slice(None),) * axis + (slice(0, 1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        if all((b[tail] == b[head]).all() for b in bits):
            core, bits = core[head], [b[head] for b in bits]
    return np.array(core)


def _probe_varies(bits: list, step: int) -> bool:
    """Does an array of ``bits`` differ between its first entry and the
    one ``step`` after it, or its last and the one ``step`` before it (C
    order)?"""
    for b in bits:
        last = b.size - 1
        if b.item(step) != b.item(0) or b.item(last - step) != b.item(last):
            return True
    return False


def _on_grid(core: np.ndarray, shape: tuple) -> np.ndarray:
    """A read-only core viewed on the grid of ``shape``: itself when it
    spans the grid."""
    return core if core.shape == shape else np.broadcast_to(core, shape)


def _owned(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a field keeps it as its own."""
    array.setflags(write=False)
    return array


@dataclass
class ScalarField:
    """Real-valued function sampled on the grid.

    A field owns its data, its core (``_core``): the constructor copies the
    core of the caller's array (``_caller_core``, the axes it varies along)
    once into a private read-only array, so a later write to the caller's
    array does not reach the field. ``values``
    is a read-only view of the core with zero strides on the axes the
    field does not vary along, and validation, reductions and the kernels
    read the core itself (``_compact``). A constant field built by
    ``constant`` stores one number, and ``value`` hands it to consumers.
    A field the package computes hands its core over without a copy
    (``_from_core``), and ``values`` is then built on first read.

    A field may also carry its exact Fourier modes (``_modes``, a
    ``_Modes`` table): a weight evaluated from an expression, or a solution
    on a table. Its data cannot change, so neither can the table go stale.
    """

    geometry: TorusGeometry
    values: np.ndarray

    _modes = None
    #: The core (``_core``), read-only; set by every constructor.
    _data = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.shape != self.geometry.grid_shape:
            raise ValueError(
                f"scalar field shape {vals.shape} != grid {self.geometry.grid_shape}"
            )
        self._keep(_caller_core(vals, np.float64))
        self.values = _on_grid(self._data, self.geometry.grid_shape)

    def _keep(self, core: np.ndarray) -> None:
        """Own ``core``, finite, as the field's data."""
        if not np.isfinite(core).all():
            raise ValueError("scalar field contains non-finite values")
        self._data = _owned(core)

    def __getattr__(self, name: str):
        # Reached only when ``values`` was never set: a field built from its
        # core views it on the grid on first read.
        if name != "values" or self._data is None:
            raise AttributeError(name)
        self.values = _on_grid(self._data, self.geometry.grid_shape)
        return self.values

    @classmethod
    def constant(cls, geometry: TorusGeometry, value: float) -> "ScalarField":
        return _from_core(geometry, float(value))

    @property
    def value(self) -> float | None:
        """The one value when the core has one entry, else None."""
        if self._data.size != 1:
            return None
        return self._data.item()

    def mean(self) -> float:
        """Exactly rounded grid mean (bit-stable)."""
        return _sum(self._data, self.geometry.grid_shape) / self.geometry.num_points

    def max_abs(self) -> float:
        return _max_abs(self._data)


def _from_core(geometry: TorusGeometry, core) -> ScalarField:
    """The field whose core is ``core`` (an array that broadcasts against
    the grid, handed over by the package code that computed it): kept
    without a copy, on the grid's rank, and made read-only."""
    core = np.asarray(core, dtype=np.float64)
    field = ScalarField.__new__(ScalarField)
    field.geometry = geometry
    rank = len(geometry.grid_shape)
    field._keep(_core(core.reshape((1,) * (rank - core.ndim) + core.shape)))
    return field


def _known_constant(field: ScalarField) -> bool:
    """Is ``field`` constant without a transform: constant storage, or a
    core of zeros? Its Hessian and trace-symbol image are then zero."""
    return field.value is not None or not _compact(field).any()


def _compact(field: ScalarField) -> np.ndarray:
    """The field's core (``_core``): arithmetic on cores costs what the
    axes the fields vary along hold, one entry for a constant field."""
    return field._data


def _pointwise(fn, *fields: ScalarField) -> ScalarField:
    """The read-only field of ``fn`` on the fields' cores (``_compact``),
    whose core is their broadcast; ``fn`` returns a new array."""
    geom = _require_same_geometry(*fields)
    return _from_core(geom, fn(*map(_compact, fields)))


def _negative(phi: ScalarField) -> ScalarField:
    """``-phi`` (``_pointwise``), keeping the negation of its mode table."""
    out = _pointwise(np.negative, phi)
    table = phi._modes
    if table is not None:
        out._modes = _Modes.of(table.wavevectors.shape[1], 0.0, {}).minus(table)
    return out


def _difference(a: ScalarField, b: ScalarField) -> ScalarField:
    """``a - b`` (``_pointwise``), keeping the difference of the fields'
    mode tables; a constant field's table is its one number."""
    out = _pointwise(np.subtract, a, b)
    axes = len(out.geometry.grid_shape)
    tables = [
        f._modes if f.value is None else _Modes.of(axes, f.value, {})
        for f in (a, b)
    ]
    if out.value is None and None not in tables:
        out._modes = tables[0].minus(tables[1])
    return out


def _max_abs(values) -> float:
    """``max(|x|)`` of finite, nonempty ``values`` without an ``abs``
    temporary, read on their core (``_core``).

    The leading 0.0 makes all-zero input give +0.0, as ``np.abs`` does.
    """
    core = _core(np.asarray(values))
    return max(0.0, float(core.max()), -float(core.min()))


def _check_hermitian(vals: np.ndarray) -> None:
    """Finiteness and the ``HERMITIAN_RTOL`` symmetry gate of a matrix stack."""
    if not np.isfinite(vals).all():
        raise ValueError("matrix field contains non-finite values")
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    dev = float(np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max())
    if dev > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"matrix field is not Hermitian: deviation {dev:.3e} "
            f"exceeds {HERMITIAN_RTOL:.0e} * {scale:.3e}"
        )


@dataclass
class HermitianMatrixField:
    """Field of n x n complex Hermitian matrices, one per grid point.

    The kernels read component planes (see ``_split``) at every n, each
    plane a core (``_core``): an array of the grid's rank with length 1
    on the axes that entry does not vary along. Every array a field holds
    is its own and read-only, and ``values`` is a read-only view on the
    grid. A field is constant exactly when each of its planes has one
    entry, which is how ``constant`` and a caller's grid copy of one
    matrix are stored: its ``values`` has zero grid strides, validation
    runs on that one matrix, and ``matrix`` hands it to consumers.
    Constancy is read off the storage alone.

    A field computed by the package is built from its planes, handed over
    without a copy, by ``_computed`` (``values`` is then assembled on
    first read, on the planes' broadcast core): it is Hermitian by
    construction, so its gate is the finiteness check. A field built
    from caller values copies their core (``_caller_core``: a grid copy of
    one matrix keeps one entry per plane) once and passes the full
    Hermitian gate on it, and its planes are views into the copy; a later
    write to the caller's array does not reach the field.
    """

    geometry: TorusGeometry
    values: np.ndarray

    #: Component planes (``_split``), set by every constructor.
    _planes = None
    #: ``(omega, EigenvalueField)`` of the last pencil solved
    #: (``qpositivity._solve_pencil``), or None.
    _pencil = None

    def __post_init__(self) -> None:
        if self._planes is not None:  # handed over, or owned past the gate
            if not all(np.isfinite(plane).all() for plane in self._planes):
                raise ValueError("matrix field contains non-finite values")
            return
        n = self.geometry.complex_dim
        vals = np.asarray(self.values)
        expected = (*self.geometry.grid_shape, n, n)
        if vals.shape != expected:
            raise ValueError(f"matrix field shape {vals.shape} != {expected}")
        self._own(_caller_core(vals, np.complex128, trailing=2))

    def _own(self, core: np.ndarray) -> None:
        """Own ``core``, a new complex array of the grid's rank followed by
        the n x n entries, once it passes the Hermitian gate."""
        _check_hermitian(core)
        n = self.geometry.complex_dim
        self.values = np.broadcast_to(_owned(core), (*self.geometry.grid_shape, n, n))
        self._planes = _split(core)

    @classmethod
    def constant(cls, geometry: TorusGeometry, matrix: np.ndarray):
        """The field of one n x n matrix, copied and gated once, with no
        grid view of the caller's matrix."""
        mat = np.array(matrix, dtype=np.complex128)
        n, grid = geometry.complex_dim, geometry.grid_shape
        if mat.shape != (n, n):
            got, expected = (*grid, *mat.shape), (*grid, n, n)
            raise ValueError(f"matrix field shape {got} != {expected}")
        field = cls.__new__(cls)
        field.geometry = geometry
        field._own(mat.reshape((1,) * len(grid) + mat.shape))
        field.__post_init__()
        return field

    @classmethod
    def _computed(cls, geometry: TorusGeometry, planes: tuple):
        """A field the package computed, exactly Hermitian by
        construction, from its planes (``_split``'s order), cores of the
        grid's rank.

        Arrays of the right dtype are kept, not copied, and made
        read-only: the caller hands them over.
        """
        n = geometry.complex_dim
        field = cls.__new__(cls)
        field.geometry = geometry
        field._planes = tuple(
            _owned(np.asarray(p, dtype=np.float64 if i < n else np.complex128))
            for i, p in enumerate(planes)
        )
        field.__post_init__()
        return field

    def __getattr__(self, name: str):
        # Reached only when ``values`` was never set: a field built from
        # planes assembles it on first read.
        if name != "values" or self._planes is None:
            raise AttributeError(name)
        n = self.geometry.complex_dim
        self.values = np.broadcast_to(
            _owned(_join(self._planes)), (*self.geometry.grid_shape, n, n)
        )
        return self.values

    @property
    def matrix(self) -> np.ndarray | None:
        """The n x n matrix when every plane has one entry, else None."""
        if any(p.size != 1 for p in self._planes):
            return None
        return self.values[(0,) * len(self.geometry.grid_shape)]


@dataclass
class MetricField(HermitianMatrixField):
    """Hermitian matrix field that is positive definite at every point,
    with a Cholesky factor in float64 at every point: the one
    positive-definite gate of the package."""

    def __post_init__(self) -> None:
        super().__post_init__()
        planes = self._planes
        lows, highs = [], []
        for _, (tile,) in _tiles(planes):
            low, high = _gate_bounds(tile)
            lows.append(float(low.min()))
            highs.append(float(high.max()))
        smallest, bound = min(lows), max(highs)
        if not smallest > 0.0:
            raise ValueError(
                f"metric field is not positive definite: min eigenvalue {smallest:.3e}"
            )
        # Cached for certificates; recomputing it is the expensive part above.
        self.min_eigenvalue = smallest
        # The pencil route whitens by the Cholesky factor. Its pivots stay
        # positive once the smallest eigenvalue clears the factorization's
        # rounding, well inside 64 n^2 u times the largest diagonal entry
        # (u = 2.2e-16); a metric below that margin is factored here. The
        # diagonal is read only when the smallest eigenvalue is within the
        # margin of the bound on it.
        n = self.geometry.complex_dim
        margin = 64 * n * n * math.ulp(1.0)
        if smallest <= margin * bound and smallest <= margin * max(
            float(p.max()) for p in planes[:n]
        ):
            try:
                for _, (tile,) in _tiles(planes):
                    _cholesky(tile)
            except np.linalg.LinAlgError as exc:
                message = "metric field has no Cholesky factor in float64"
                raise ValueError(message) from exc

    # A constant metric's matrix (``constant_representative``, read off
    # its storage), its LAPACK inverse and determinant, and its Cholesky
    # factor, each taken on first use; NonConstantMetricError if the
    # metric varies. The field cannot change, so neither can they.

    @cached_property
    def _constant(self) -> np.ndarray:
        return _owned(constant_representative(self))

    @cached_property
    def _inverse(self) -> np.ndarray:
        return _owned(np.linalg.inv(self._constant))

    @cached_property
    def _determinant(self) -> float:
        return float(np.linalg.det(self._constant).real)

    @cached_property
    def _factor(self) -> tuple:
        """``planes._cholesky`` of the matrix's planes: the factor and its
        inverse that every pencil against the metric is whitened by, as
        planes of numpy scalars (n <= 2) or read-only stacks."""
        root, inverse = _cholesky(_split(self._constant))
        if not isinstance(root, tuple):
            _owned(root), _owned(inverse)
        return root, inverse


@lru_cache(maxsize=32)
def identity_metric(geometry: TorusGeometry) -> MetricField:
    """The identity metric, built and gated once per geometry: equal
    geometries share one field, which cannot change. An entry is one
    n x n matrix with its inverse and determinant."""
    return constant_metric(geometry, np.eye(geometry.complex_dim))


def constant_metric(geometry: TorusGeometry, matrix: np.ndarray) -> MetricField:
    return MetricField.constant(geometry, matrix)


def constant_representative(field: HermitianMatrixField) -> np.ndarray:
    """A copy of the n x n matrix of a constant field, ``field.matrix``.

    Raises
    ------
    NonConstantMetricError
        If the field varies: some plane has more than one entry.
    """
    const = field.matrix
    if const is None:
        raise NonConstantMetricError("field varies over the grid")
    return const.copy()


def compensated_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of all entries, bit-identical to ``math.fsum``.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008): with
    ``max|x| < 2^e``, ``2^k >= N + 2`` and ``sigma = 2^(e + k)``, the high
    parts ``q = (sigma + x) - sigma`` and the rest ``x - q`` are exact,
    and ``sum(q)`` is exact in any order. Repeating on the rest until it
    vanishes leaves a few exact partial sums, whose exact sum rounded once
    is the exactly rounded total. Non-finite input, or input so large that
    ``sigma`` overflows for the whole array, goes to ``math.fsum`` of every
    entry, which keeps its NaN result and its ValueError and OverflowError.

    The sum reads the core of ``values`` (``_core``), whose every entry
    stands for the same number m of entries of ``values`` (one for a full
    array, N for a constant field's). A core of at most ``_SUM_DIRECT``
    entries is its own list of exact partials; a larger one is extracted.
    The total is m times their exact sum, formed in integers (units of the
    smallest subnormal, 2^-1074) and rounded once by the correctly rounded
    integer division: the correctly rounded sum, which is what
    ``math.fsum`` of all N entries gives, for any m.

    The extraction runs block by block (``_SUM_BLOCK`` entries, so its two
    work buffers stay in L2), in place. Every block's partial sums are
    exact, so their exact sum is the total of any partition, and of any
    traversal order: parallel callers that shard the grid still agree
    bit-for-bit with the serial reduction.
    """
    x = np.asarray(values, dtype=np.float64)
    return _sum(_core(x), x.shape)


def _sum(core: np.ndarray, shape: tuple) -> float:
    """``compensated_sum`` of the grid array of ``shape`` whose core
    (``_core``, float64) is ``core``: the package's reductions pass a
    field's core and the grid shape it stands for, with no grid view."""
    size = math.prod(shape)
    top = max(float(core.max()), -float(core.min()), 0.0) if size else 0.0
    if not top < math.ldexp(1.0, 1023 - (size + 1).bit_length()):
        # Overflow depends on the order of the entries: take the grid's.
        return math.fsum(np.broadcast_to(core, shape).ravel())
    if top == 0.0:
        # Only zeros: fsum's sign of zero depends on their signs alone.
        return math.fsum([-0.0] if size and np.signbit(core).all() else [])
    core = core.ravel(order="C")
    partials = core.tolist() if core.size <= _SUM_DIRECT else _partials(core, top)
    units = 0
    for p in partials:
        numerator, denominator = p.as_integer_ratio()  # denominator 2^j, j <= 1074
        units += numerator << (1075 - denominator.bit_length())
    return units * (size // core.size) / (1 << 1074)


def _partials(x: np.ndarray, top: float) -> list:
    """Exact partial sums of flat ``x`` with ``max|x| = top``, by error-free
    extraction (``compensated_sum``), block by block."""
    k = (x.size + 1).bit_length()
    q_buffer, rest_buffer = np.empty((2, min(_SUM_BLOCK, x.size)))
    partials = []
    for start in range(0, x.size, _SUM_BLOCK):
        block = x[start : start + _SUM_BLOCK]
        q, rest = q_buffer[: block.size], rest_buffer[: block.size]
        # The first round reads the block where it lies; later rounds work
        # on its rest in place.
        block_top = top
        while block_top > 0.0:
            sigma = math.ldexp(1.0, math.frexp(block_top)[1] + k)
            np.add(block, sigma, q)
            q -= sigma
            np.subtract(block, q, rest)
            block = rest
            partials.append(float(q.sum()))
            block_top = max(float(rest.max()), -float(rest.min()))
    return partials


def complex_hessian(phi: ScalarField) -> HermitianMatrixField:
    """Complex Hessian of a real scalar field.

    Entry ``(j, k)`` is the mixed Wirtinger derivative of ``phi`` in
    ``z_j`` and conjugate ``z_k``, evaluated spectrally::

        (1/4) * [ (d_xj d_xk + d_yj d_yk) phi
                  + i (d_xj d_yk - d_yj d_xk) phi ]

    Each entry is the field of the spectrum (``_Spectrum``) times the
    entry's multiplier ``_hessian_multiplier``, which is even in the mode.
    The output is Hermitian at every grid point exactly, not just to
    round-off: the diagonal multipliers ``-|A_j|^2`` are real, so the
    diagonal is real, and the lower triangle takes the conjugate
    multipliers of the upper one, which is an identity of the continuum
    operator on real input. The entries are the field's component planes,
    each on the axes its own modes span (``_Spectrum.grid``). A
    ``_known_constant`` field has the exact zero Hessian, one matrix, with
    no transform.
    """
    geom = phi.geometry
    if _known_constant(phi):
        n = geom.complex_dim
        return HermitianMatrixField.constant(geom, np.zeros((n, n)))
    return HermitianMatrixField._computed(geom, _hessian_planes(phi))


def _hessian_planes(phi: ScalarField) -> tuple:
    """The component planes of ``complex_hessian(phi)`` for a field that
    is not ``_known_constant``: new arrays, not yet handed over."""
    spectrum = _Spectrum.of(phi)
    symbols = spectrum.symbols
    # Plane (j, k) from the conjugate multiplier of (k, j).
    return tuple(
        spectrum.grid(multiplier=np.conj(_hessian_multiplier(symbols, k, j)))
        for j, k in _entries(phi.geometry.complex_dim)
    )


def _trace_symbol(symbols: tuple, inverse_metric: np.ndarray) -> np.ndarray:
    """Fourier symbol of ``phi -> trace(W . complex_hessian(phi))`` on
    ``symbols``: the d/dz symbols at a spectrum's bins
    (``_Spectrum.symbols``).

    For Hermitian positive definite ``W`` the symbol equals
    ``-a(m)^H W a(m)`` with ``a`` the stacked d/dz symbols, hence it is
    real, even in ``m``, strictly negative on every mode carrying a
    nonzero derivative multiplier, and exactly zero otherwise. A singular
    symbol on an active mode therefore cannot occur; poisson_solve checks
    this. scalar_curvature filters the weight with the same symbol against
    a constant metric.

    Term (k, j) is ``Re(conj(a_k) W_kj a_j)``, the (j, k) term its
    conjugate's real part, so each pair k < j is one term counted twice.
    The terms are subtracted symbol by symbol, each on its own shape (term
    (k, j) varies along the axes of ``a_k`` and ``a_j`` only), so only the
    steps that bring in a third symbol's axes run over the whole half
    spectrum: two passes at n = 3 instead of nine. For a diagonal ``W``
    the cross terms are zero and the result is the plain double sum's
    bit for bit.
    """

    def term(k: int, j: int) -> np.ndarray:
        t = (np.conj(symbols[k]) * inverse_metric[k, j] * symbols[j]).real
        return t if j == k else 2.0 * t

    def minus(sym: np.ndarray, t: np.ndarray) -> np.ndarray:
        # In place once sym spans t's axes: one spectrum-sized array at most.
        if np.broadcast_shapes(sym.shape, t.shape) != sym.shape:
            return sym - t
        sym -= t
        return sym

    sym = 0.0 - term(0, 0)
    for k in range(1, len(symbols)):
        for j in range(k - 1):
            sym = minus(sym, term(j, k))
        sym = minus(sym, term(k, k) + term(k - 1, k))
    return sym


def poisson_solve(g: ScalarField, omega: MetricField) -> ScalarField:
    """Solve ``trace(Omega^{-1} complex_hessian(f)) = g`` for mean-zero f.

    ``omega`` must be constant over the grid. The right-hand side must have
    (numerically) zero mean, the periodic solvability condition; otherwise
    MeanNotZeroError is raised. Fourier coefficients of ``g`` are divided by
    the trace symbol; modes with a vanishing symbol (the constant mode and
    pure-Nyquist combinations, which carry no derivative information on an
    even grid) are projected out, so ``g`` should be band-limited below the
    Nyquist frequency. A right-hand side that is exactly zero skips the
    transforms and gives the constant zero field.

    Returns f with zero grid mean and residual
    ``|trace(Omega^{-1} H(f)) - g|_inf <= 1e-8 * |g|_inf`` for band-limited g.
    f is read-only, as every field is.
    """
    geom = _require_same_geometry(g, omega)
    inverse_metric = omega._inverse  # NonConstantMetricError if it varies
    _check_mean_zero(g)
    spectrum = _Spectrum.of(g)
    sym = _checked_symbol(spectrum, inverse_metric)
    if _known_constant(g):  # zero, by the mean check
        return ScalarField.constant(geom, 0.0)
    return _solve(spectrum, sym)


def _check_mean_zero(g: ScalarField) -> float:
    """poisson_solve's solvability precondition on its right-hand side;
    returns the ``|g|_inf`` it compared against."""
    g_inf = g.max_abs()
    g_mean = g.mean()
    if abs(g_mean) > MEAN_ZERO_RTOL * g_inf:
        raise MeanNotZeroError(
            f"right-hand side mean {g_mean:.3e} exceeds "
            f"{MEAN_ZERO_RTOL:.0e} * |g|_inf = {MEAN_ZERO_RTOL * g_inf:.3e}"
        )
    return g_inf


def _checked_symbol(spectrum: _Spectrum, inverse_metric: np.ndarray) -> np.ndarray:
    """``_trace_symbol`` of ``inverse_metric`` at the spectrum's bins,
    guarded for poisson_solve."""
    sym = _trace_symbol(spectrum.symbols, inverse_metric)
    # Positive definiteness of the metric makes the symbol strictly negative
    # on every active mode; a singular active symbol is impossible.
    if not (sym[~spectrum.dead] < 0.0).all():
        raise InternalInvariantError("singular trace symbol on an active mode")
    return sym


def _solve(spectrum: _Spectrum, sym: np.ndarray) -> ScalarField:
    """The spectral core of poisson_solve: the mean-zero solution f for a
    right-hand side with ``spectrum`` (only its active bins are read).
    ``spectrum`` is overwritten with the one f is the field of, before its
    round-off mean is removed. The solution is read-only, and a table's
    carries its own."""
    geom = spectrum.geometry
    f = spectrum.over(sym).grid()
    mean = _sum(f, geom.grid_shape) / geom.num_points
    f -= mean
    field = _from_core(geom, f)
    field._modes = spectrum.modes(-mean)
    return field


def scalar_field_to_csv(field: ScalarField, path: str | Path, name: str = "value") -> Path:
    """Dump one row per grid point: coordinates then the field value."""
    return _columns_to_csv(field.geometry, {name: field.values}, path)


def scalar_field_from_csv(geometry: TorusGeometry, path: str | Path) -> ScalarField:
    """Load a field written by scalar_field_to_csv (last column, C order)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    if data.shape[0] != geometry.num_points:
        raise ValueError(
            f"{path} has {data.shape[0]} rows, grid needs {geometry.num_points}"
        )
    values = data[:, -1].reshape(geometry.grid_shape, order="C")
    return ScalarField(geometry, values)


def _columns_to_csv(
    geom: TorusGeometry, columns: dict[str, np.ndarray], path: str | Path
) -> Path:
    n = geom.complex_dim
    coord_names = []
    for j in range(n):
        coord_names += [f"x{j + 1}", f"y{j + 1}"]
    coords = geom.coordinate_arrays()
    cols = [c.ravel(order="C") for c in coords]
    names = list(coord_names)
    for key, arr in columns.items():
        arr = np.asarray(arr)
        if arr.shape == geom.grid_shape:
            cols.append(arr.ravel(order="C"))
            names.append(key)
        else:
            # trailing component axis, e.g. eigenvalue tuples
            ncomp = arr.shape[-1]
            flat = arr.reshape(-1, ncomp)
            for c in range(ncomp):
                cols.append(flat[:, c])
                names.append(f"{key}{c + 1}")
    data = np.column_stack(cols)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, data, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
    return path

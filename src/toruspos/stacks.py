"""Ragged stacks: the instances of a corpus chunk joined on one point axis.

A corpus runs the same routes on many small instances whose fields live on
cores (``lattice._core``) of different shapes, so they cannot share a new
leading axis. A ``_Stack`` ravels each instance's core and joins the cores
end to end: instance i owns the points ``offsets[i]:offsets[i + 1]``. Each
instance's constants are repeated over its points, the elementwise kernels
then run once on the joined arrays, per-instance minima and maxima come
from ``ufunc.reduceat`` at the offsets, and exactly rounded sums are taken
instance by instance (``lattice._sum`` is exact under any grouping). So
every point holds the value its instance gives alone, bit for bit, and
every reduction reads the same values. A stack carries one spectrum
(``_weight_spectra``): the instances' mode tables joined row by row, each
row carrying its instance's index (``_Waves``).

One instance is a stack of its own: its arrays stay on its core, with no
copy, its constants are not repeated, and its spectrum is its weight's
own, in either form. See CONVENTIONS.md, "Stacks".
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InternalInvariantError
from .lattice import (
    ScalarField,
    TorusGeometry,
    _axis_wave,
    _compact,
    _known_constant,
    _Spectrum,
    _sum,
)

#: Grid points per chunk of a corpus. A chunk of this many instances' grids
#: is drawn and run at once (``chunk_size``), so a corpus's memory is one
#: chunk's whatever its count: 2^20 points hold 256 instances of an 8^4 or
#: 4^6 grid and one of any grid of 2^20 points or more. The budget counts
#: grid points, while a chunk's memory follows its instances' cores; a grid
#: of 32^4 or more thus runs one instance per chunk, about 7 % slower per
#: instance than without chunks (CHANGES.md).
CHUNK_POINTS = 1 << 20


def chunk_size(geometry: TorusGeometry) -> int:
    """Instances per corpus chunk: whole grids within ``CHUNK_POINTS``, at
    least one."""
    return max(1, CHUNK_POINTS // geometry.num_points)


class _Stack:
    """The ragged layout of instances whose cores have ``shapes`` (each of
    the grid's rank): their values joined on one point axis.

    An array on the stack has the points as its leading axis, then any
    axes of its own; for a lone instance it is the instance's own array,
    on its core (or a core it broadcasts against).
    """

    def __init__(self, geometry: TorusGeometry, shapes) -> None:
        self.geometry, self.shapes = geometry, shapes
        self.lone = len(shapes) == 1

    @cached_property
    def sizes(self) -> np.ndarray:
        """The points of each instance."""
        return np.array([math.prod(s) for s in self.shapes], dtype=np.intp)

    @cached_property
    def _offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.sizes)))

    @property
    def points(self) -> int:
        return int(self._offsets[-1])

    def repeat(self, values) -> np.ndarray:
        """Per-instance ``values`` (leading axis the instances) on the
        stack: a lone instance's own value, else each repeated over its
        instance's points."""
        if self.lone:
            return values[0]
        return np.repeat(values, self.sizes, axis=0)

    def split(self, x) -> list:
        """Each instance's part of an array on the stack, viewed on its
        core (axes of the array's own kept)."""
        if self.lone:
            return [x]
        return [
            x[start:stop].reshape(*shape, *x.shape[1:])
            for start, stop, shape in zip(self._offsets, self._offsets[1:], self.shapes)
        ]

    def _reduce(self, ufunc, x) -> list[float]:
        if self.lone:
            return [float(ufunc.reduce(x, axis=None))]
        per = ufunc.reduceat(x, self._offsets[:-1], axis=0)
        return ufunc.reduce(per.reshape(len(per), -1), axis=1).tolist()

    def minima(self, x) -> list[float]:
        """Each instance's minimum of an array on the stack (over its own
        axes too)."""
        return self._reduce(np.minimum, x)

    def maxima(self, x) -> list[float]:
        """Each instance's maximum (``minima``)."""
        return self._reduce(np.maximum, x)

    def max_abs(self, x) -> list[float]:
        """Each instance's ``lattice._max_abs``: ``max(|x|)``, +0.0 for
        zeros."""
        return [max(0.0, hi, -lo) for hi, lo in zip(self.maxima(x), self.minima(x))]

    def sums(self, x, among=None) -> list[float]:
        """Each instance's exactly rounded grid sum (``lattice._sum``) of
        an array on the stack, whose part is a core of the grid; 0.0 for
        an instance that ``among`` (a flag per instance) leaves out."""
        grid = self.geometry.grid_shape
        parts = self.split(x)
        if among is None:
            return [_sum(np.asarray(part), grid) for part in parts]
        return [_sum(np.asarray(p), grid) if a else 0.0 for p, a in zip(parts, among)]

    @cached_property
    def owners(self) -> np.ndarray:
        """The instance of each point."""
        return np.repeat(np.arange(len(self.shapes)), self.sizes)

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray]:
        """``(count, axes)`` tables of each core's lengths and C-order
        steps."""
        shapes = np.array(self.shapes, dtype=np.intp).reshape(len(self.shapes), -1)
        return shapes, np.cumprod(shapes[:, ::-1], axis=1)[:, ::-1] // shapes

    def coordinate(self, points: np.ndarray, axis: int) -> np.ndarray:
        """Each of ``points``' index on grid axis ``axis`` of its
        instance's core."""
        owners = self.owners[points]
        shapes, steps = self._steps
        local = points - self._offsets[owners]
        return (local // steps[owners, axis]) % shapes[owners, axis]


class _Waves:
    """The fields of a stack's one spectrum ``table`` on its points.

    A lone instance's spectrum is its weight's own, in either form, and
    ``grid`` has it synthesize its core itself (``_Spectrum.grid``).
    Several instances' spectrum is their mode tables joined row by row,
    grouped by instance in each table's own order: row r belongs to
    instance ``owners[r]``, and ``grid`` writes what ``_Spectrum.grid``
    gives each table on its core, bit for bit. There ``2 Re(c e_m)`` is
    the coefficient times the exact axis waves (``lattice._axis_wave``)
    of the axes where m is nonzero, multiplied in axis order, each axis
    wave read at the point's index on that axis; each row's wave, times
    its multiplier when one is given, is added to the constant over its
    instance's points.
    """

    def __init__(self, stack: _Stack, table: _Spectrum, owners):
        self.stack, self.table, self.owners = stack, table, owners
        self._slots = []
        if stack.lone:
            return
        wavevectors = table.wavevectors
        first, per = self._first, self._per
        grid = stack.geometry.grid_shape
        point_rows = per[stack.owners]
        # Slot k holds the k-th row of every table that has one.
        for k in range(int(per.max())):
            points = np.flatnonzero(point_rows > k)
            rows = first[stack.owners[points]] + k
            factors = []
            for axis in np.flatnonzero(wavevectors[first[per > k] + k].any(axis=0)):
                m = wavevectors[rows, axis]
                phase = (-m * stack.coordinate(points, axis)) % grid[axis]
                factors.append((_axis_wave(-1, grid[axis])[phase], m != 0))
            self._slots.append((points, rows, factors))

    @cached_property
    def _per(self) -> np.ndarray:
        """The rows of each instance."""
        return np.bincount(self.owners, minlength=len(self.stack.shapes))

    @cached_property
    def _first(self) -> np.ndarray:
        return np.cumsum(self._per) - self._per

    def rows(self, i: int) -> slice:
        """Instance i's rows of the joined table: all of a lone one's."""
        if self.stack.lone:
            return slice(None)
        start = int(self._first[i])
        return slice(start, start + int(self._per[i]))

    def on_rows(self, values):
        """Per-instance ``values`` (leading axis the instances) on the
        table's rows: a lone instance's own value, else each row's
        instance's."""
        return values[0] if self.stack.lone else values[self.owners]

    def grid(self, constants=None, multiplier=None) -> np.ndarray:
        """The fields of the spectrum's values, plus ``constants`` (one per
        instance) when given, on the stack; with a per-row ``multiplier``,
        the fields it maps them to, of its dtype. Joined, a row whose
        multiplier is zero adds a signed zero to a sum that starts at the
        constant or at +0.0: it keeps its bits, as when ``_Spectrum.grid``
        skips the row."""
        if self.stack.lone:
            return self.table.grid(None if constants is None else constants[0], multiplier)
        dtype = np.float64 if multiplier is None else multiplier.dtype
        out = np.empty(self.stack.points, dtype=dtype)
        out[...] = 0.0 if constants is None else self.stack.repeat(constants)
        values = self.table.values
        for points, rows, factors in self._slots:
            wave = values[rows]
            for factor, varies in factors:
                np.multiply(wave, factor, out=wave, where=varies)
            wave = wave.real
            wave = wave + wave
            if multiplier is not None:
                wave = multiplier[rows] * wave
            out[points] += wave
        return out


def _joins(phi: ScalarField) -> bool:
    """May ``phi`` join a stack of several weights: has it a mode table,
    or is it ``_known_constant`` (whose table is empty)?"""
    return phi._modes is not None or _known_constant(phi)


def _weight_spectra(geometry: TorusGeometry, weights: list[ScalarField]):
    """The one spectrum of a stack's weights and its ``_Waves`` on the
    stack (``waves.stack``): ``(table, waves)``.

    A lone weight's spectrum is its own ``_Spectrum``, a mode table or a
    half spectrum. Several weights must each ``_joins``, or
    InternalInvariantError is raised: their spectrum is their tables'
    rows joined as one table. A ``_known_constant`` weight's table is
    empty. The stack holds each weight's fields on the core its spectrum
    synthesizes (``_Spectrum.grid``): the axes its table's modes vary
    along (one point for a constant weight), or its core with the grid's
    last axis whole for a half spectrum.
    """
    if len(weights) > 1 and not all(map(_joins, weights)):
        raise InternalInvariantError("only weights with mode tables are joined")
    rank = len(geometry.grid_shape)
    empty = (np.zeros((0, rank), dtype=np.int64), np.zeros(0, dtype=np.complex128))
    spectra = [
        _Spectrum._rows(geometry, *empty) if _known_constant(phi) else _Spectrum.of(phi)
        for phi in weights
    ]
    shapes = []
    for phi, sp in zip(weights, spectra):
        if sp.wavevectors is None:
            shapes.append((*_compact(phi).shape[:-1], geometry.grid_shape[-1]))
        else:
            varies = sp.wavevectors.any(axis=0).tolist()
            shapes.append(tuple(s if v else 1 for s, v in zip(geometry.grid_shape, varies)))
    stack = _Stack(geometry, shapes)
    if stack.lone:
        return spectra[0], _Waves(stack, spectra[0], None)
    table = _Spectrum._rows(
        geometry,
        np.concatenate([sp.wavevectors for sp in spectra]),
        np.concatenate([sp.values for sp in spectra]),
    )
    owners = np.repeat(np.arange(len(spectra)), [len(sp.values) for sp in spectra])
    return table, _Waves(stack, table, owners)

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
every reduction reads the same values. A joined mode table (``_Waves``)
gives each table row its instance's index.

One instance is a stack of its own: its arrays stay on its core, with no
copy, and its constants are not repeated. See CONVENTIONS.md, "Stacks".
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

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
        return math.prod(self.shapes[0]) if self.lone else int(self._offsets[-1])

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
    """The fields of a joined mode table on a stack's points: row r of
    ``table`` (a ``_Spectrum`` of rows grouped by instance, in each
    table's own order) belongs to instance ``owners[r]``.

    ``grid`` writes what ``lattice._Spectrum.grid`` gives each table on its
    core, bit for bit. A lone instance's table is its own spectrum, which
    writes its core itself. Joined, row by row in each table's order,
    ``2 Re(c e_m)`` is the coefficient times the exact axis waves
    (``lattice._axis_wave``) of the axes where m is nonzero, multiplied in
    axis order, each axis wave read at the point's index on that axis;
    each row's wave, times its multiplier when one is given, is added to
    the constant over its instance's points.
    """

    def __init__(self, stack: _Stack, table, owners: np.ndarray):
        self.stack, self.table, self.owners = stack, table, owners
        self._slots = []
        if stack.lone or table is None:
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

    def grid(self, constants, multiplier=None, dtype=np.float64) -> np.ndarray:
        """The tables' fields with their spectra's values, plus
        ``constants`` (one per instance, or one for all), on the stack;
        with a per-row ``multiplier``, the fields it maps them to, of its
        dtype. A row whose multiplier is zero adds a signed zero to a sum
        that starts at the constant: a sum that is not -0.0 keeps its bits,
        as when ``_Spectrum.grid`` skips the row."""
        each = np.ndim(constants) > 0
        if self.stack.lone and self.table is not None:
            return self.table.grid(constants[0] if each else constants, multiplier)
        if multiplier is not None:
            dtype = multiplier.dtype
        out = np.empty(self.stack.points, dtype=dtype)
        out[...] = self.stack.repeat(constants) if each else constants
        values = None if self.table is None else self.table.values
        for points, rows, factors in self._slots:
            wave = values[rows]
            for factor, varies in factors:
                np.multiply(wave, factor, out=wave, where=varies)
            wave = wave.real
            wave = wave + wave
            if multiplier is not None:
                wave = multiplier[rows] * wave
            out[points] += wave
        return out.reshape(self.stack.shapes[0]) if self.stack.lone else out


def _half(spectrum) -> bool:
    """Is ``spectrum`` a half spectrum, a field's with no mode table?"""
    return spectrum is not None and spectrum.wavevectors is None


def _weight_spectra(geometry: TorusGeometry, weights: list[ScalarField]):
    """The spectra of a stack's weights: ``(stack, spectra, joined)``.

    ``spectra`` holds each weight's ``_Spectrum``, None for a
    ``_known_constant`` weight. The stack holds each weight's fields on
    the core its spectrum synthesizes (``_Spectrum.grid``): one point for
    a constant weight, the axes its table's modes vary along, or its core
    with the grid's last axis whole for a half spectrum. ``joined`` is
    ``(table, waves)``: the tables' rows joined as one table spectrum
    (None if no weight has a table) and their ``_Waves`` on the stack. A
    lone table is joined without a copy.
    """
    rank = len(geometry.grid_shape)
    spectra = [None if _known_constant(phi) else _Spectrum.of(phi) for phi in weights]
    shapes = []
    for phi, sp in zip(weights, spectra):
        if sp is None:
            shapes.append((1,) * rank)
        elif sp.wavevectors is None:
            shapes.append((*_compact(phi).shape[:-1], geometry.grid_shape[-1]))
        else:
            varies = sp.wavevectors.any(axis=0).tolist()
            shapes.append(tuple(s if v else 1 for s, v in zip(geometry.grid_shape, varies)))
    stack = _Stack(geometry, shapes)
    tables = [(i, sp) for i, sp in enumerate(spectra) if sp is not None and not _half(sp)]
    table, owners = None, np.zeros(0, dtype=np.intp)
    if len(tables) == 1:
        table = tables[0][1]
        owners = np.full(len(table.values), tables[0][0])
    elif tables:
        wavevectors = np.concatenate([sp.wavevectors for _, sp in tables])
        values = np.concatenate([sp.values for _, sp in tables])
        table = _Spectrum._rows(geometry, wavevectors, values)
        owners = np.repeat([i for i, _ in tables], [len(sp.values) for _, sp in tables])
    return stack, spectra, (table, _Waves(stack, table, owners))

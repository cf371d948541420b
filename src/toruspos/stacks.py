"""Ragged stacks: the instances of a corpus chunk joined on one point axis.

A corpus runs the same routes on many small instances whose fields live on
cores (``lattice._core``) of different shapes, so they cannot share a new
leading axis. A ``_Stack`` ravels each instance's core and joins the cores
end to end: instance i owns the points ``offsets[i]:offsets[i + 1]``. Each
instance's constants are repeated over its points, the elementwise kernels
then run once on the joined arrays, per-instance minima and maxima come
from ``ufunc.reduceat`` at the offsets, and the exactly rounded sums of
all instances come from one error-free extraction over the joined array,
each instance with its own ``sigma`` (``_Stack.sums``): the exact sum of
an instance's part does not depend on how it is grouped. So every point
holds the value its instance gives alone, bit for bit, and every
reduction reads the same values. A stack carries one spectrum
(``_weight_spectra``): the instances' mode tables joined row by row, each
row carrying its instance's index (``_Waves``).

One instance is a stack of its own: its arrays stay on its core, with no
copy, its constants are not repeated, and its spectrum is its weight's
own, in either form. See CONVENTIONS.md, "Stacks".
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import InternalInvariantError
from .lattice import (
    ScalarField,
    TorusGeometry,
    _axis_wave,
    _compact,
    _known_constant,
    _rounded,
    _Spectrum,
    _sum,
    _sum_bound,
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
        a flat array on the stack, whose part is a core of the grid; 0.0
        for an instance that ``among`` (a flag per instance) leaves out.

        The instances are extracted together (``_partials``). One whose
        values are not finite, reach ``lattice._sum_bound`` or are all
        zero is summed alone by ``lattice._sum``, which takes its
        ``math.fsum`` fallback and its sign of zero."""
        grid, num_points = self.geometry.grid_shape, self.geometry.num_points
        count = len(self.shapes)
        among = np.ones(count, bool) if among is None else np.asarray(among, bool)
        if self.lone:
            return [_sum(np.asarray(x), grid) if among[0] else 0.0]
        top = self._tops(x)
        extracted = among & (top > 0.0) & (top < _sum_bound(num_points))
        partials = self._partials(x, np.where(extracted, top, 0.0), extracted)
        parts = self.split(x) if (among & ~extracted).any() else None
        totals = [0.0] * count
        for i in np.flatnonzero(among).tolist():
            if extracted[i]:
                totals[i] = _rounded(partials[i], num_points // int(self.sizes[i]))
            else:
                totals[i] = _sum(parts[i], grid)
        return totals

    def _tops(self, x) -> np.ndarray:
        """Each instance's ``max(|x|)`` of a flat array on the stack (NaN
        where its part holds one)."""
        starts = self._offsets[:-1]
        return np.maximum(np.maximum.reduceat(x, starts), -np.minimum.reduceat(x, starts))

    def _partials(self, x, top, extracted) -> list:
        """The exact partial sums of each instance's part of flat ``x``
        whose max-abs is ``top`` (zeros for one not ``extracted``), one per
        round: ``lattice._partials`` on every part at once. Each instance
        has its own ``sigma``, from what is left of it, and all share the
        ``k`` of the largest core, so each part's high parts sum exactly
        and one ``np.add.reduceat`` takes them all; the rounds repeat
        until every rest is zero."""
        starts = self._offsets[:-1]
        rest = x if extracted.all() else np.where(self.repeat(extracted), x, 0.0)
        k = int(self.sizes.max() + 1).bit_length()
        q = np.empty(self.points)
        rounds = []
        while (top > 0.0).any():  # False on NaN: a rest never spins
            sigma = self.repeat(np.ldexp(1.0, np.frexp(top)[1] + k))
            np.add(rest, sigma, out=q)
            q -= sigma
            # The first round reads x where it lies; later rounds work on
            # the rest in place.
            rest = rest - q if rest is x else np.subtract(rest, q, out=rest)
            rounds.append(np.add.reduceat(q, starts))
            top = self._tops(rest)
        return np.array(rounds).reshape(-1, len(self.shapes)).T.tolist()

    @cached_property
    def owners(self) -> np.ndarray:
        """The instance of each point."""
        return np.repeat(np.arange(len(self.shapes)), self.sizes)

    @cached_property
    def indices(self) -> np.ndarray:
        """``(points, rank)``: each point's index on each grid axis of its
        instance's core, the cores' ``_indices`` joined."""
        return np.concatenate([_indices(shape) for shape in self.shapes])


@lru_cache(maxsize=256)
def _indices(shape: tuple) -> np.ndarray:
    """``(points, rank)``: each point's index on each axis of a core of
    ``shape``, in C order (read-only)."""
    table = np.indices(shape).reshape(len(shape), -1).T.copy()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _phases(s: int) -> np.ndarray:
    """``(s, s)``: entry ``(m mod s, j)`` is the exact axis wave of mode m
    at point j of an axis of ``s`` points (``lattice._axis_wave``), for
    every m (read-only)."""
    m, j = np.ogrid[:s, :s]
    table = _axis_wave(-1, s)[(-m * j) % s]
    table.setflags(write=False)
    return table


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
        per, first, grid = self._per, self._first, stack.geometry.grid_shape
        # A mode's residue on an axis of s points is zero exactly where the
        # mode is, as |m| < s / 2.
        residues = table.wavevectors % np.array(grid)
        # Slot k holds the k-th row of every table that has one, on its
        # instance's points; every slot's points, rows and residues are
        # gathered at once, and each slot is a slice of them.
        slots, points = np.nonzero(np.arange(per.max())[:, None] < per[stack.owners])
        rows = first[stack.owners[points]] + slots
        on_points = np.take(residues, rows, axis=0)
        at = np.take(stack.indices, points, axis=0)
        bounds = np.searchsorted(slots, np.arange(per.max() + 1)).tolist()
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            axes = np.take(residues, first[per > k] + k, axis=0).any(axis=0)
            factors = []
            for a in np.flatnonzero(axes).tolist():
                m = on_points[lo:hi, a]
                factors.append((_phases(grid[a])[m, at[lo:hi, a]], m != 0))
            self._slots.append((points[lo:hi], rows[lo:hi], factors))

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
    grid = geometry.grid_shape
    empty = (np.zeros((0, len(grid)), dtype=np.int64), np.zeros(0, dtype=np.complex128))
    tables = []  # each weight's (wavevectors, coefficients), None for a half spectrum
    for phi in weights:
        if _known_constant(phi):
            tables.append(empty)
        elif phi._modes is not None:
            tables.append((phi._modes.wavevectors, phi._modes.coefficients))
        elif len(weights) > 1:
            raise InternalInvariantError("only weights with mode tables are joined")
        else:
            tables.append(None)
    shapes = [
        (*_compact(phi).shape[:-1], grid[-1]) if table is None
        else tuple(np.where(table[0].any(axis=0), grid, 1).tolist())
        for phi, table in zip(weights, tables)
    ]
    stack = _Stack(geometry, shapes)
    if stack.lone:
        constant = tables[0] is empty
        spectrum = _Spectrum._rows(geometry, *empty) if constant else _Spectrum.of(weights[0])
        return spectrum, _Waves(stack, spectrum, None)
    wavevectors, values = (np.concatenate(column) for column in zip(*tables))
    owners = np.repeat(np.arange(len(tables)), [len(t[1]) for t in tables])
    table = _Spectrum._rows(geometry, wavevectors, values)
    return table, _Waves(stack, table, owners)

"""Kernels on the component planes of Hermitian matrix fields.

A field of n x n Hermitian matrices is stored as component planes
(``_split``): the n real diagonal entries, then the complex lower entries
row by row, each a core of the grid (``lattice._core``). The kernels here
run elementwise on planes: closed forms for n <= 2 (eigenvalues, matrix
functions, the Cholesky factor, congruences) and batched LAPACK on each
tile's joined stack for larger n. ``_tiled`` walks the operands' common
core one L2-sized tile at a time. See CONVENTIONS.md, "Component planes".
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

#: Grid points per tile of the pencil kernels. A tile's temporaries at
#: n <= 2 (64 KB real, 128 KB complex; a dozen or so live at once) stay in
#: a 2 MB L2 cache and are reused by malloc instead of being faulted in
#: fresh for every grid-sized pass; smaller tiles pay more per-call
#: dispatch. At n >= 3 a tile's joined 3 x 3 stack takes 1.2 MB.
_TILE = 1 << 13


def _entries(n: int) -> list[tuple[int, int]]:
    """The entry ``(j, k)`` of each component plane of an n x n field: the
    diagonal, then the lower triangle row by row."""
    return [(j, j) for j in range(n)] + [(j, k) for j in range(1, n) for k in range(j)]


def _split(values: np.ndarray) -> tuple:
    """Component planes of stacked n x n matrices (or of one matrix).

    The entries of ``_entries``: n real diagonal planes ``M[j, j]``, then
    n(n-1)/2 complex lower planes ``M[j, k]``, ``j > k``; ``(a,)`` for
    n = 1 and ``(a, d, c)`` for n = 2. Like LAPACK, only the real diagonal
    and the lower triangle are read. The planes are views into ``values``.
    """
    return tuple(
        values[..., j, k].real if j == k else values[..., j, k]
        for j, k in _entries(values.shape[-1])
    )


def _join(planes: tuple) -> np.ndarray:
    """The exactly Hermitian ``(..., n, n)`` array that ``planes`` describe."""
    n = (math.isqrt(8 * len(planes) + 1) - 1) // 2
    out = np.empty((*np.broadcast_shapes(*map(np.shape, planes)), n, n), dtype=complex)
    for (j, k), plane in zip(_entries(n), planes):
        out[..., j, k] = plane
        if j != k:
            out[..., k, j] = np.conj(plane)
    return out


def _hermitian_2x2_parts(a, d, c):
    """Half diagonal difference ``h``, shift ``t`` and half gap ``r`` of the
    2 x 2 Hermitian matrices with planes ``(a, d, c)``.

    The eigenvalues ``m +- r`` with ``m = (a + d)/2`` and
    ``r = hypot(h, |c|)`` are ``max(a, d) + t`` and ``min(a, d) - t`` with
    ``t = |c| * (|c| / (r + |h|))``, which is exact for diagonal input and
    free of the cancellation in ``t = r - |h|``.
    """
    h = a - d
    h *= 0.5
    abs_c = np.abs(c)
    # r = hypot(h, |c|) as the modulus of h + i|c|: numpy's complex
    # absolute value is as careful about overflow and several times faster.
    z = np.empty(np.broadcast(h, abs_c).shape, dtype=np.complex128)
    z.real, z.imag = h, abs_c
    r = np.abs(z)
    del z
    s = np.abs(h, out=np.empty(np.shape(r)))  # r's shape, also for 0-d planes
    s += r
    s[s == 0.0] = 1.0  # h = |c| = 0 there, so t is 0
    t = abs_c / s
    t *= abs_c
    return h, t, r


def _tiles(*operands):
    """``(span, tiles)`` for each L2-sized tile of the operands' common core.

    ``operands`` are plane tuples, each plane a core (``_core``) of the
    grid's rank or 0-d; their common core is the broadcast of all their
    shapes. A plane of one entry enters every tile whole, as a 0-d array.
    A common core of at most ``_TILE`` points is one tile, with ``span``
    the whole of it: the planes themselves, which the kernel broadcasts
    against each other. A larger one is cut into runs of whole rows over
    its trailing axes, each a contiguous ``span`` of the flattened core:
    a tile holds that span of every plane, a view of a plane on the whole
    core and a tile-sized broadcast copy of a plane on fewer axes, so an
    elementwise kernel gives on a tile exactly its whole-core result there.
    """
    core = _common_core(operands)
    if math.prod(core) <= _TILE:
        yield slice(None), tuple(
            tuple(p.reshape(()) if p.size == 1 else p for p in planes)
            for planes in operands
        )
        return
    # Rows over the trailing axes from axis k on fit a tile (k = len(core):
    # single points); a tile takes up to `step` indices of axis k - 1, at
    # one index of the axes before it.
    k = next(k for k in range(len(core) + 1) if math.prod(core[k:]) <= _TILE)
    row = math.prod(core[k:])
    step = _TILE // row

    def prepared(p):  # 0-d, flat over the core, or viewed on the core
        if p.size == 1:
            return p.reshape(())
        return p.reshape(-1) if p.shape == core else np.broadcast_to(p, core)

    def cut(p, span, index):
        if p.ndim == 0:
            return p
        return p[span] if p.ndim == 1 else p[index].reshape(-1)

    walked = [tuple(map(prepared, planes)) for planes in operands]
    for outer in range(math.prod(core[: k - 1])):
        lead = np.unravel_index(outer, core[: k - 1])
        first = outer * core[k - 1]
        for start in range(0, core[k - 1], step):
            stop = min(start + step, core[k - 1])
            span = slice((first + start) * row, (first + stop) * row)
            index = (*lead, slice(start, stop))
            yield span, tuple(
                tuple(cut(p, span, index) for p in planes) for planes in walked
            )


def _common_core(operands) -> tuple:
    """The broadcast shape of every plane of the plane tuples ``operands``,
    for any number of planes."""
    return np.broadcast_shapes(*(p.shape for planes in operands for p in planes))


def _tiled(kernel, *operands):
    """Arrays of ``kernel(*operands)`` on the operands' common core, one
    tile at a time.

    ``kernel`` maps plane tuples elementwise to a tuple of arrays whose
    leading axes are the broadcast of its planes' (see ``_tiles``), then
    any axes of its own. Each tile's arrays are written into flat outputs
    allocated on the first tile, which come back on the common core. On
    one tile the kernel's own output is returned, with no copy; a core of
    one point, whose planes enter 0-d, gets its grid axes back as length 1.
    """
    core = _common_core(operands)
    out = None
    for span, tiles in _tiles(*operands):
        parts = kernel(*tiles)
        if span == slice(None):
            if math.prod(core) == 1:
                return tuple(np.reshape(p, (*core, *np.shape(p))) for p in parts)
            return parts
        if out is None:
            size = math.prod(core)
            out = tuple(np.empty((size, *p.shape[1:]), dtype=p.dtype) for p in parts)
        for target, part in zip(out, parts):
            target[span] = part
    return tuple(target.reshape(*core, *target.shape[1:]) for target in out)


def _small_eigvalsh(planes: tuple) -> tuple:
    """Eigenvalue planes of n x n Hermitian planes, n <= 2, descending.

    Closed form; agrees with ``np.linalg.eigvalsh`` (reversed) to round-off
    relative to the largest |eigenvalue|.
    """
    if len(planes) == 1:
        return planes
    a, d, c = planes
    _, t, _ = _hermitian_2x2_parts(a, d, c)
    return np.maximum(a, d) + t, np.minimum(a, d) - t


def _small_matrix_function(planes: tuple, *fns) -> list[tuple]:
    """Planes of ``f(M)`` for n x n Hermitian planes ``M``, n <= 2, one per f.

    Each ``f`` maps a real array elementwise. For n = 2 the projector form
    ``f(M) = f1 P1 + f2 P2`` is evaluated per entry: with ``tau = t/(2r)``
    (0 where ``r = 0``; ``tau <= 1/2``), the diagonal entry at ``max(a, d)``
    is ``f_hi - (f_hi - f_lo) tau``, the one at ``min(a, d)`` is
    ``f_lo + (f_hi - f_lo) tau``, and the lower entry is
    ``(f_hi - f_lo)/(2r) c``. For positive ``f`` no diagonal term cancels,
    so each diagonal entry is accurate relative to itself; diagonal input
    gives exactly ``diag(f(a), f(d))``.
    """
    if len(planes) == 1:
        (a,) = planes
        return [(fn(a),) for fn in fns]
    a, d, c = planes
    h, t, r = _hermitian_2x2_parts(a, d, c)
    # The eigenvalues at a's place and at d's (hi goes where a >= d); each
    # diagonal entry is its eigenvalue's f moved a share tau towards the
    # other one's.
    at_a = np.copysign(t, h)
    at_d = d - at_a
    at_a += a
    two_r = np.asarray(r + r)
    two_r[two_r == 0.0] = 1.0  # t and c are 0 there, so tau and unit are 0
    tau = t / two_r
    # (f_hi - f_lo) c / (2r) = (f_a - f_d) unit with |unit| <= 1/2. Real
    # divisions: 1/(2r), which complex division forms, overflows for
    # subnormal r.
    np.copysign(two_r, h, out=two_r)
    unit = np.empty(np.shape(two_r), dtype=np.complex128)
    np.divide(c.real, two_r, out=unit.real)
    np.divide(c.imag, two_r, out=unit.imag)
    out = []
    for fn in fns:
        f_a, f_d = fn(at_a), fn(at_d)
        diff = f_a - f_d
        share = diff * tau
        out.append((f_a - share, f_d + share, diff * unit))
    return out


def _small(x) -> bool:
    """Is kernel operand ``x`` closed-form planes (n <= 2), not for LAPACK?"""
    return isinstance(x, tuple) and len(x) <= 3


def _stack(x) -> np.ndarray:
    """The ``(..., n, n)`` stack LAPACK takes of planes or of a stack."""
    return _join(x) if isinstance(x, tuple) else x


def _descending_eigenvalues(B) -> np.ndarray:
    """Eigenvalues of Hermitian B (a kernel operand), descending along a
    new last axis.

    The order holds by construction: the closed form puts ``max(a, d) + t``
    above ``min(a, d) - t`` with ``t >= 0``, and LAPACK returns its
    eigenvalues ascending.
    """
    if _small(B):
        return np.stack(_small_eigvalsh(B), axis=-1)
    return np.ascontiguousarray(np.linalg.eigvalsh(_stack(B))[..., ::-1])


def _cholesky(base):
    """Lower Cholesky factor ``L`` of ``Base = L L*`` and ``L^{-1}``, of
    positive definite planes (a kernel operand).

    On planes (n <= 2) both are closed form and come as the planes of a
    lower triangular matrix, diagonal first: ``(l11, l22, l21)`` with
    ``l11 = sqrt(a)``, ``l21 = c / l11``, ``l22 = sqrt(d - |l21|^2)``, and
    ``L^{-1}`` has diagonal ``1/l11``, ``1/l22`` and lower entry
    ``-l21 / (l11 l22)``. Larger n uses LAPACK ``cholesky`` on the joined
    stack and the inverse of its factor, as stacks. A pivot that float64
    does not form positive raises ``np.linalg.LinAlgError`` (at n = 1 the
    pivot is ``a``, the eigenvalue itself).
    """
    if not _small(base):
        L = np.linalg.cholesky(_join(base))
        return L, np.linalg.inv(L)
    l11 = np.sqrt(base[0])
    inv11 = 1.0 / l11
    if len(base) == 1:
        return (l11,), (inv11,)
    _, d, c = base
    l21 = c * inv11
    pivot = d - (l21.real * l21.real + l21.imag * l21.imag)
    if not (pivot > 0.0).all():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    l22 = np.sqrt(pivot)
    inv22 = 1.0 / l22
    return (l11, l22, l21), (inv11, inv22, l21 * -(inv11 * inv22))


def _congruence(T, M):
    """``T M T*`` for lower triangular T and Hermitian M, each one matrix
    or a field (``_cholesky`` gives T).

    On planes (n <= 2) the product is expanded entry by entry over the
    grid and is exactly Hermitian; larger n multiplies stacks.
    """
    if not _small(T):
        return T @ _stack(M) @ np.conj(np.swapaxes(T, -1, -2))
    if len(M) == 1:
        # Squared by pow, not t * t, for a 0-d T: n = 1 keeps its former bits.
        return (T[0] ** 2 * M[0],)
    t1, t2, t = T
    a, d, c = M
    cross = t.real * c.real + t.imag * c.imag  # Re(conj(t) c)
    tt = t.real * t.real + t.imag * t.imag
    return (
        t1 * t1 * a,
        tt * a + 2.0 * t2 * cross + t2 * t2 * d,
        (t1 * t) * a + (t1 * t2) * c,
    )


def _gate_bounds(planes) -> tuple:
    """The smallest eigenvalue of Hermitian planes (a kernel operand), and
    a bound no smaller than their largest diagonal entry, pointwise. On
    planes (n <= 2) the bound is the largest eigenvalue, which the closed
    form puts at ``max(a, d) + t`` with ``t >= 0``; LAPACK's eigenvalues
    carry no such guarantee, so larger n takes the diagonal itself."""
    if _small(planes):
        eigenvalues = _small_eigvalsh(planes)
        return eigenvalues[-1], eigenvalues[0]
    n = (math.isqrt(8 * len(planes) + 1) - 1) // 2
    return np.linalg.eigvalsh(_join(planes))[..., 0], reduce(np.maximum, planes[:n])


def _check_finite(planes) -> None:
    """The finiteness gate of a matrix field's planes."""
    if not all(np.isfinite(plane).all() for plane in planes):
        raise ValueError("matrix field contains non-finite values")


def _positive_definite(planes) -> float:
    """The one positive-definite gate of the package (``MetricField``'s) on
    finite Hermitian planes: their smallest eigenvalue, once it is positive
    and each matrix has a Cholesky factor in float64; ValueError if not.
    Read one tile (``_tiles``) at a time."""
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
    # The pencil route whitens by the Cholesky factor. Its pivots stay
    # positive once the smallest eigenvalue clears the factorization's
    # rounding, well inside 64 n^2 u times the largest diagonal entry
    # (u = 2.2e-16); a metric below that margin is factored here. The
    # diagonal is read only when the smallest eigenvalue is within the
    # margin of the bound on it.
    n = (math.isqrt(8 * len(planes) + 1) - 1) // 2
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
    return smallest

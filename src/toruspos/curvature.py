"""Line-bundle metrics, Chern curvature, and degree pairings on flat tori.

A Hermitian metric on a line bundle over the torus is stored as a constant
curvature representative ``r_const`` plus a real weight ``phi``; the metric
itself is ``h = exp(-phi) * h0`` where h0 has curvature ``r_const``. The
full Chern curvature is then

    R = r_const + complex_hessian(phi),

a Hermitian matrix field. Changing the weight by ``phi -> phi - f``
(multiplying h by exp(f)) subtracts the Hessian of f from R and leaves all
degree pairings untouched, which is the exactness property the integrals
below are tested against.

The volume form of a constant Hermitian metric Omega is normalized as
``det(Omega)`` times Lebesgue measure (the top wedge power divided by n
factorial). Every quantity in this package uses that one convention; see
CONVENTIONS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import scalar_field_from_expression
from .lattice import (
    HermitianMatrixField,
    MetricField,
    ScalarField,
    TorusGeometry,
    _check_hermitian,
    _checked_symbol,
    _compact,
    _from_core,
    _hessian_planes,
    _known_constant,
    _negative,
    _owned,
    _require_same_geometry,
    _Spectrum,
    _sum,
    _trace_symbol,
)
from .planes import _join, _split, _tiled


@dataclass
class LineBundleMetric:
    """Hermitian line-bundle metric ``h = exp(-phi) h0`` on a flat torus.

    ``r_const`` is the constant curvature matrix of the reference metric
    h0 and doubles as the constant representative of the curvature class.
    ``phi_expression`` optionally records the closed form the weight was
    built from, so configs and reports round-trip exactly.

    ``r_const`` is a read-only private copy, and the weight is kept as it
    is: a field owns its data and cannot change, so the curvature that
    chern_curvature caches on the bundle, and the class spectrum that
    class_spectrum caches there, cannot go stale. A constant weight stays
    one number, and a weight keeps its mode table.
    ``from_expression`` evaluates its weight on the axes it varies along
    (``scalar_field_from_expression``).
    """

    geometry: TorusGeometry
    r_const: np.ndarray
    phi: ScalarField
    phi_expression: str | None = None
    _curvature: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _spectrum: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = self.geometry.complex_dim
        r_const = np.array(self.r_const, dtype=np.complex128)
        if r_const.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {r_const.shape}")
        _check_hermitian(r_const)
        self.r_const = _owned(r_const)
        self._check_weight()

    @classmethod
    def from_constant(
        cls, geometry: TorusGeometry, r_const: np.ndarray
    ) -> "LineBundleMetric":
        return cls(geometry, r_const, ScalarField.constant(geometry, 0.0), "0")

    @classmethod
    def from_expression(
        cls, geometry: TorusGeometry, r_const: np.ndarray, phi_text: str
    ) -> "LineBundleMetric":
        phi = scalar_field_from_expression(geometry, phi_text)
        return cls(geometry, r_const, phi, phi_text)

    @classmethod
    def _derived(
        cls,
        geometry: TorusGeometry,
        r_const: np.ndarray,
        phi: ScalarField,
        expression: str | None,
    ) -> "LineBundleMetric":
        """A bundle on a class matrix handed over by the package: another
        bundle's read-only, already gated ``r_const``, or its negation,
        kept without a copy or a second gate."""
        bundle = cls.__new__(cls)
        bundle.geometry, bundle.r_const = geometry, _owned(r_const)
        bundle.phi, bundle.phi_expression = phi, expression
        bundle._check_weight()
        return bundle

    def _check_weight(self) -> None:
        _require_same_geometry(self, self.phi)

    def dual(self) -> "LineBundleMetric":
        """Metric induced on the inverse bundle; curvature flips sign."""
        return LineBundleMetric._derived(
            self.geometry, -self.r_const, _negative(self.phi), None
        )

    def with_weight(self, phi: ScalarField, expression: str | None = None):
        return LineBundleMetric._derived(self.geometry, self.r_const, phi, expression)


@dataclass
class PositivityCertificate:
    """Outcome of a positivity check, with enough data to audit it.

    ``margin`` is the worst-case quantity the verdict is judged on (an
    eigenvalue, an eigenvalue sum, or a scalar-curvature constant,
    depending on the producing operation). A true verdict always means
    ``margin > tolerance``; this is enforced at construction time.
    """

    verdict: bool
    margin: float
    tolerance: float
    witness_metric: MetricField | None = None
    witness_weight: ScalarField | None = None
    residuals: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.margin = float(self.margin)
        self.tolerance = float(self.tolerance)
        if self.verdict and not self.margin > self.tolerance:
            raise ValueError(
                f"inconsistent certificate: verdict true with margin "
                f"{self.margin!r} <= tolerance {self.tolerance!r}"
            )

    def to_json_dict(self) -> dict:
        out = {
            "verdict": bool(self.verdict),
            "margin": self.margin,
            "tolerance": self.tolerance,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }
        for key, value in sorted(self.details.items()):
            out[key] = value
        if self.witness_metric is not None:
            const = self.witness_metric.matrix
            out["witness_metric"] = (
                "field" if const is None else complex_matrix_to_json(const)
            )
        if self.witness_weight is not None:
            w = self.witness_weight
            out["witness_weight"] = {
                "mean": w.mean(),
                "max_abs": w.max_abs(),
            }
        return out


def chern_curvature(L: LineBundleMetric) -> HermitianMatrixField:
    """Full curvature field ``r_const + complex_hessian(phi)``.

    Computed once per bundle and cached on it; the field is read-only. A
    constant weight has zero Hessian, so its curvature is ``r_const`` kept
    as one matrix.
    """
    cached = L._curvature
    if cached is not None and cached[0] is L.r_const and cached[1] is L.phi:
        return cached[2]
    if _known_constant(L.phi):
        R = HermitianMatrixField.constant(L.geometry, L.r_const)
    else:
        # The constant part goes into the Hessian's planes before they are
        # handed over, so the grid is gated once: the Hessian is exactly
        # Hermitian and finite, and r_const passed the same checks when the
        # bundle was built.
        planes = _hessian_planes(L.phi)
        for plane, entry in zip(planes, _split(L.r_const)):
            plane += entry
        R = HermitianMatrixField._computed(L.geometry, planes)
    L._curvature = (L.r_const, L.phi, R)
    return R


def class_spectrum(L: LineBundleMetric) -> tuple[np.ndarray, np.ndarray]:
    """``eigh(r_const)``: the eigenvalues of the class, ascending, and an
    orthonormal eigenbasis as columns, both read-only.

    Computed once per bundle and cached on it, like the curvature: the
    suite's class routes, the certificate's aligned metric and the corpus
    CSV all read this one eigensolve.
    """
    cached = L._spectrum
    if cached is None or cached[0] is not L.r_const:
        cached = L._spectrum = (L.r_const, *_eigenpairs(L.r_const))
    return cached[1], cached[2]


def _class_spectra(bundles: list[LineBundleMetric]) -> None:
    """Fill every bundle's ``class_spectrum`` cache from one ``eigh`` of
    their stacked ``r_const``: a corpus eigensolves its classes at once."""
    if not bundles:
        return
    mu, U = _eigenpairs(np.stack([L.r_const for L in bundles]))
    for L, mu_row, U_row in zip(bundles, mu, U):
        L._spectrum = (L.r_const, mu_row, U_row)


def _eigenpairs(r_const: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a class matrix or a stack of them, read-only: the one
    eigensolve of a class in the package (class_spectrum, _class_spectra;
    a tier-1 source rule keeps it so). A stack's rows are the bits of
    lone calls."""
    mu, U = np.linalg.eigh(r_const)
    mu.setflags(write=False)
    U.setflags(write=False)
    return mu, U


def scalar_curvature(L: LineBundleMetric, omega: MetricField) -> ScalarField:
    """Trace of the curvature against the base metric, pointwise.

    Equals the sum of the generalized eigenvalues of (R, Omega) at each
    grid point, and scales by exp(-u) when omega is scaled by exp(u).

    Against a constant metric, ``W = Omega^{-1}``, the trace is
    ``trace(W r_const)`` plus the weight filtered by the trace symbol of
    W, so no curvature field is built; with a constant weight it is the
    constant field ``trace(W r_const)``. Against a varying metric it is
    ``trace(Omega^{-1} R)`` with R ``chern_curvature``, by LAPACK ``inv``
    and one ``einsum`` per tile of the two fields' common core, so no
    grid-sized ``(..., n, n)`` stack is formed.
    """
    return _scalar_curvature(L, omega)[0]


def _scalar_curvature(
    L: LineBundleMetric, omega: MetricField, checked: bool = False
) -> tuple[ScalarField, _Spectrum | None, np.ndarray | None]:
    """scalar_curvature, with the spectrum of its varying part (the
    weight's ``_Spectrum`` times the trace symbol of ``Omega^{-1}``) and
    that symbol, when it took the spectral route (else None for both).
    ``checked`` builds the symbol guarded for a solve (``_checked_symbol``),
    so that a caller dividing by it uses the one this call used.
    """
    geom = _require_same_geometry(L, omega)
    if omega.matrix is None:

        def trace(f, w):
            # Both stacks on one shape, so that einsum sums every point in
            # the same order as on the grid.
            planes = np.broadcast_arrays(*f, *w)
            W = np.linalg.inv(_join(planes[len(f) :]))
            return (np.einsum("...ij,...ji->...", W, _join(planes[: len(f)])).real,)

        (tr,) = _tiled(trace, chern_curvature(L)._planes, omega._planes)
        return _from_core(geom, tr), None, None
    W = omega._inverse
    trace = np.einsum("ij,ji->", W, L.r_const).real
    if _known_constant(L.phi):
        return ScalarField.constant(geom, trace), None, None
    spectrum = _Spectrum.of(L.phi)
    symbol = (
        _checked_symbol(spectrum, W) if checked else _trace_symbol(spectrum.symbols, W)
    )
    tr = spectrum.times(symbol).grid(trace)
    return _from_core(geom, tr), spectrum, symbol


def volume_integral(omega: MetricField) -> float:
    """Total volume ``integral of det(Omega)`` over the torus.

    For a constant metric (one matrix, ``matrix``) this is
    ``det * num_points`` rounded once, which equals the exactly rounded
    sum of the equal per-point determinants. A varying metric's
    determinants are taken one tile at a time on the core of its planes,
    by the same LAPACK routine as the constant one's, so equal matrices
    stored on the whole grid give the same volume.
    """
    geom = omega.geometry
    if omega.matrix is not None:
        return geom.cell_volume * (omega._determinant * geom.num_points)
    (dets,) = _tiled(lambda w: (np.linalg.det(_join(w)).real,), omega._planes)
    return geom.cell_volume * _sum(dets, geom.grid_shape)


def degree_integral(L: LineBundleMetric, omega: MetricField) -> float:
    """Pairing of the curvature class with the (n-1)-st power of omega.

    Computed through the trace route as ``(1/n) * integral of
    trace(Omega^{-1} R) * det(Omega)``. Only constant base metrics are
    accepted: on a flat torus those are automatically Kaehler, hence the
    pairing is an invariant of the curvature class (independent of phi).
    """
    det = omega._determinant  # NonConstantMetricError if it varies
    return _degree_of_trace(scalar_curvature(L, omega), det)


def _degree_of_trace(tr: ScalarField, det: float) -> float:
    """``(1/n) * integral of tr * det`` for the determinant ``det`` of a
    constant base matrix."""
    geom = tr.geometry
    total = _sum(_compact(tr), geom.grid_shape)
    return det / geom.complex_dim * geom.cell_volume * total


def complex_matrix_to_json(matrix: np.ndarray) -> list:
    """Nested [real, imag] pairs, row major."""
    mat = np.asarray(matrix, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def complex_matrix_from_json(data) -> np.ndarray:
    rows = []
    for row in data:
        entries = []
        for cell in row:
            if isinstance(cell, (int, float)):
                entries.append(complex(cell, 0.0))
            else:
                re, im = cell
                entries.append(complex(re, im))
        rows.append(entries)
    return np.asarray(rows, dtype=np.complex128)


def bundle_to_json_dict(L: LineBundleMetric) -> dict:
    """Serialize a bundle metric; the weight must carry its expression."""
    if L.phi_expression is None:
        raise ValueError(
            "cannot serialize a weight without its expression; "
            "export the field to CSV instead"
        )
    return {
        "r_const": complex_matrix_to_json(L.r_const),
        "phi": L.phi_expression,
    }


def bundle_from_json_dict(geometry: TorusGeometry, data: dict) -> LineBundleMetric:
    """Inverse of bundle_to_json_dict.

    The weight is either expression text or {"csv": path} referencing a
    field exported with scalar_field_to_csv.
    """
    from .lattice import scalar_field_from_csv

    r_const = complex_matrix_from_json(data["r_const"])
    phi_spec = data.get("phi", "0")
    if isinstance(phi_spec, dict):
        phi = scalar_field_from_csv(geometry, phi_spec["csv"])
        return LineBundleMetric(geometry, r_const, phi, None)
    return LineBundleMetric.from_expression(geometry, r_const, phi_spec)

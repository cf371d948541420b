"""Tiny closed-form expression language for scalar weights in configs.

Grammar (whitespace insensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := number | trig
    trig   := ('sin' | 'cos') '(' [integer '*'] coord ')'
    coord  := ('x' | 'y') index          # 1-based complex coordinate index

Examples: ``"0"``, ``"0.5*sin(x1)"``, ``"cos(2*y2) - 0.25*sin(x1)*cos(x2)"``.

Integer frequencies keep every expression periodic on the default 2*pi
torus. On other periods, and on coarse grids, evaluation rejects a product
term with ConfigError unless it is periodic and resolved below the
Nyquist mode on every axis (see ``_check_resolved``): spectral
derivatives of a non-periodic or aliased weight are silently wrong.

Expressions are stored as text in configs and reports and re-parsed on
load, so a report is reproducible from its own serialized form.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError, InternalInvariantError
from .lattice import TWO_PI, ScalarField, TorusGeometry, _from_core, _Modes

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z]+\d*)
      | (?P<symbol>[-+*()])
    )""",
    re.VERBOSE,
)

_COORD_RE = re.compile(r"^([xy])([1-9]\d*)$")


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ConfigError(f"cannot tokenize expression at: {remainder!r}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


class _Parser:
    """Recursive-descent parser producing a nested-tuple syntax tree.

    Nodes: ("num", float), ("trig", fn, freq, axis_letter, index),
    ("mul", [nodes]), ("sum", [(sign, node), ...]).
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        got_kind, got_value = self.peek()
        if got_kind is None:
            raise ConfigError(f"unexpected end of expression: {self.text!r}")
        if kind is not None and got_kind != kind:
            raise ConfigError(
                f"expected {kind} but found {got_value!r} in {self.text!r}"
            )
        if value is not None and got_value != value:
            raise ConfigError(
                f"expected {value!r} but found {got_value!r} in {self.text!r}"
            )
        self.pos += 1
        return got_value

    def parse(self):
        tree = self.expr()
        if self.pos != len(self.tokens):
            leftover = self.tokens[self.pos][1]
            raise ConfigError(f"trailing input {leftover!r} in {self.text!r}")
        return tree

    def expr(self):
        terms = []
        sign = 1.0
        if self.peek() == ("symbol", "-"):
            self.take()
            sign = -1.0
        terms.append((sign, self.term()))
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "symbol":
            op = self.take()
            terms.append((1.0 if op == "+" else -1.0, self.term()))
        return ("sum", terms)

    def term(self):
        factors = [self.factor()]
        while self.peek() == ("symbol", "*"):
            self.take()
            factors.append(self.factor())
        return ("mul", factors)

    def factor(self):
        kind, value = self.peek()
        if kind == "number":
            self.take()
            return ("num", float(value))
        if kind == "name":
            return self.trig()
        raise ConfigError(f"expected a number or sin/cos, found {value!r}")

    def trig(self):
        fn = self.take("name")
        if fn not in ("sin", "cos"):
            raise ConfigError(f"unknown function {fn!r} (only sin and cos)")
        self.take("symbol", "(")
        freq = 1
        kind, value = self.peek()
        if kind == "number":
            self.take()
            if "." in value or "e" in value.lower():
                raise ConfigError(f"frequency must be an integer, got {value!r}")
            freq = int(value)
            self.take("symbol", "*")
        coord = self.take("name")
        match = _COORD_RE.match(coord)
        if match is None:
            raise ConfigError(f"expected a coordinate like x1 or y2, got {coord!r}")
        self.take("symbol", ")")
        return ("trig", fn, freq, match.group(1), int(match.group(2)))


def parse_expression(text: str):
    """Parse to a syntax tree; raises ConfigError with position context."""
    return _Parser(text).parse()


def expression_coordinates(tree) -> set[tuple[str, int]]:
    """Set of (letter, 1-based index) coordinates the tree references."""
    kind = tree[0]
    if kind == "num":
        return set()
    if kind == "trig":
        return {(tree[3], tree[4])}
    if kind == "mul":
        out = set()
        for node in tree[1]:
            out |= expression_coordinates(node)
        return out
    if kind == "sum":
        out = set()
        for _, node in tree[1]:
            out |= expression_coordinates(node)
        return out
    raise InternalInvariantError(f"unknown expression node {kind!r}")


def _eval(tree, coords: dict[tuple[str, int], np.ndarray]) -> np.ndarray:
    """Value of ``tree``; every node broadcasts, so a sum fills only the
    broadcast shape of its terms: the axes of the coordinates in it."""
    kind = tree[0]
    if kind == "num":
        return np.float64(tree[1])
    if kind == "trig":
        _, fn, freq, letter, index = tree
        arg = freq * coords[(letter, index)]
        return np.sin(arg) if fn == "sin" else np.cos(arg)
    if kind == "mul":
        out = _eval(tree[1][0], coords)
        for node in tree[1][1:]:
            out = out * _eval(node, coords)
        return out
    if kind == "sum":
        terms = [sign * _eval(node, coords) for sign, node in tree[1]]
        out = np.zeros(np.broadcast_shapes(*map(np.shape, terms)))
        for term in terms:
            out += term
        return out
    raise InternalInvariantError(f"unknown expression node {kind!r}")


def _is_integer(value: float) -> bool:
    return abs(value - round(value)) <= 1e-9 * max(1.0, abs(value))


def _check_resolved(tree, geometry: TorusGeometry) -> None:
    """Reject product terms the grid cannot represent, with ConfigError.

    On an axis of period P a factor of frequency k carries the mode
    ``m = k * P / (2 pi)``, and a product of factors carries every signed
    sum of their modes, up to their plain sum. All of those are integers,
    i.e. the term is periodic, exactly when the plain sum and every
    ``2 m`` are integers. The plain sum must also stay below the Nyquist
    mode ``N / 2``, whose derivative multiplier is zeroed; higher modes
    alias onto lower ones.
    """
    for _, term in tree[1]:
        modes: dict[int, list[float]] = {}
        for factor in term[1]:
            if factor[0] == "trig":
                _, _, freq, letter, index = factor
                axis = 2 * (index - 1) + (letter == "y")
                modes.setdefault(axis, []).append(
                    freq * geometry.periods[axis] / TWO_PI
                )
        for axis, axis_modes in modes.items():
            total = sum(axis_modes)
            coord = f"{'xy'[axis % 2]}{axis // 2 + 1}"
            if not (_is_integer(total) and all(_is_integer(2 * m) for m in axis_modes)):
                raise ConfigError(
                    f"weight is not periodic in {coord}: period "
                    f"{geometry.periods[axis]!r} carries mode {total:.6g}"
                )
            if round(total) >= geometry.grid_shape[axis] // 2:
                raise ConfigError(
                    f"weight mode {round(total)} in {coord} is not below the "
                    f"Nyquist mode {geometry.grid_shape[axis] // 2} of the grid"
                )


def _resolved(tree, geometry: TorusGeometry) -> set[tuple[str, int]]:
    """The coordinates a syntax tree uses, once every coordinate is in
    range and every term resolved (``_check_resolved``)."""
    n = geometry.complex_dim
    used = expression_coordinates(tree)
    for letter, index in used:
        if index > n:
            raise ConfigError(
                f"coordinate {letter}{index} out of range for complex dimension {n}"
            )
    _check_resolved(tree, geometry)
    return used


def _grid_values(tree, used, geometry: TorusGeometry) -> np.ndarray:
    """Core (``lattice._core``) of a resolved tree on the grid of
    ``geometry``: length 1 on each axis of a coordinate the tree does not
    use, or a 0-d array when it uses none."""
    # Each coordinate is its 1-D axis samples, shaped to broadcast along
    # its own axis: no grid-sized coordinate array is built.
    axes = 2 * geometry.complex_dim
    coords = {}
    for axis in range(axes):
        shape = [1] * axes
        shape[axis] = -1
        key = ("xy"[axis % 2], axis // 2 + 1)
        if key in used:
            coords[key] = geometry._axes[axis].reshape(shape)
    return _eval(tree, coords)


def _modes(tree, geometry: TorusGeometry) -> _Modes | None:
    """The exact Fourier modes of a resolved tree, or None.

    Each factor is a sum of exponentials in doubled modes: on an axis of
    period P, ``cos(k x)`` is ``(e(+d) + e(-d)) / 2`` and ``sin(k x)`` is
    ``(e(+d) - e(-d)) / 2i`` with ``d = 2 k P / (2 pi)``, an integer even
    where one factor's own mode ``k P / (2 pi)`` is half an integer. Each
    product term is expanded, the terms summed, and the doubled modes,
    all even once ``_check_resolved`` has passed, halved. None when some
    ``d`` is not an exact integer (a period that is not an exact multiple
    of pi), or when the table has more than ``_Modes.MAX_PAIRS`` pairs; a
    product term that expands past that many gives up early, since the
    number of modes of a product never falls as factors multiply in.
    """
    axes = 2 * geometry.complex_dim
    zero = (0,) * axes
    total: dict[tuple, complex] = {}
    for sign, term in tree[1]:
        product = {zero: complex(sign)}
        for factor in term[1]:
            if factor[0] == "num":
                expansion = {zero: factor[1]}
            else:
                _, fn, freq, letter, index = factor
                axis = 2 * (index - 1) + (letter == "y")
                doubled = 2.0 * freq * (geometry.periods[axis] / TWO_PI)
                if not doubled.is_integer():
                    return None
                up = [0] * axes
                up[axis] = int(doubled)
                up, down = tuple(up), tuple(-m for m in up)
                half = (0.5, 0.5) if fn == "cos" else (-0.5j, 0.5j)
                expansion = {}
                for mode, c in zip((up, down), half):
                    expansion[mode] = expansion.get(mode, 0.0) + c
            grown: dict[tuple, complex] = {}
            for m, c in product.items():
                for k, d in expansion.items():
                    key = tuple(a + b for a, b in zip(m, k))
                    grown[key] = grown.get(key, 0.0) + c * d
            if len(grown) > 2 * _Modes.MAX_PAIRS + 1:
                return None
            product = grown
        for m, c in product.items():
            total[m] = total.get(m, 0.0) + c
    # One mode of each conjugate pair: the one whose last nonzero entry is
    # positive.
    pairs = {
        tuple(a // 2 for a in m): c
        for m, c in total.items()
        if any(m) and next(a for a in reversed(m) if a) > 0
    }
    return _Modes.of(axes, total.get(zero, 0.0).real, pairs)


def _evaluate(text: str, geometry: TorusGeometry) -> np.ndarray:
    """Core of expression text on the grid of ``geometry`` (``_grid_values``)."""
    tree = parse_expression(text)
    return _grid_values(tree, _resolved(tree, geometry), geometry)


def evaluate_expression(text: str, geometry: TorusGeometry) -> np.ndarray:
    """Evaluate expression text on the grid of ``geometry``.

    Raises ConfigError for coordinates beyond the complex dimension and for
    product terms that are not periodic or not resolved by the grid.
    """
    values = _evaluate(text, geometry)
    if values.shape == geometry.grid_shape:
        return values
    return np.full(geometry.grid_shape, values)


def scalar_field_from_expression(geometry: TorusGeometry, text: str) -> ScalarField:
    """The read-only field of expression text on its core (``_grid_values``),
    with the exact Fourier modes of the text (``lattice._Modes``), which
    the spectral operators read instead of transforming: the weight of a
    bundle. Text with no coordinate in it gives a constant field,
    evaluated once."""
    return _field_of_tree(geometry, parse_expression(text))


def _field_of_tree(geometry: TorusGeometry, tree) -> ScalarField:
    """``scalar_field_from_expression`` of the text whose syntax tree is
    ``tree``."""
    core = _grid_values(tree, _resolved(tree, geometry), geometry)
    if not core.ndim:
        return ScalarField.constant(geometry, core)
    field = _from_core(geometry, core)
    field._modes = _modes(tree, geometry)
    return field


def random_expression(
    rng: np.random.Generator,
    complex_dim: int,
    amplitude: float = 0.25,
    max_terms: int = 3,
    zero_probability: float = 0.2,
    max_frequency: int = 2,
) -> str:
    """Draw a random weight expression (text) for corpus generation.

    About ``zero_probability`` of draws are the literal ``"0"``, exercising
    the translation-invariant case. Otherwise 1..max_terms terms, each a
    coefficient times sin or cos of frequency 1..max_frequency in one
    coordinate. Coefficients are rounded to 4 decimals so the text
    round-trips exactly.
    """
    return _draw_expression(
        rng, complex_dim, amplitude, max_terms, zero_probability, max_frequency
    )[1]


def _draw_expression(
    rng: np.random.Generator,
    complex_dim: int,
    amplitude: float = 0.25,
    max_terms: int = 3,
    zero_probability: float = 0.2,
    max_frequency: int = 2,
) -> tuple:
    """``(tree, text)`` of one ``random_expression`` draw: the text, and
    the syntax tree ``parse_expression`` gives of it, built as it is drawn.
    A negative coefficient (a negative ``amplitude``) is written as the
    term's sign, ``- 0.42*sin(x1)``, which is how the grammar reads it."""
    if rng.random() < zero_probability:
        return ("sum", [(1.0, ("mul", [("num", 0.0)]))]), "0"
    n_terms = int(rng.integers(1, max_terms + 1))
    terms, text = [], ""
    for i in range(n_terms):
        coeff = round(float(rng.uniform(0.2, 1.0)) * amplitude, 4)
        fn = ("sin", "cos")[rng.integers(0, 2)]
        freq = int(rng.integers(1, max_frequency + 1))
        j = int(rng.integers(1, complex_dim + 1))
        letter = ("x", "y")[rng.integers(0, 2)]
        coord = f"{letter}{j}"
        arg = coord if freq == 1 else f"{freq}*{coord}"
        sign = math.copysign(1.0, coeff)
        text += ("-" if i == 0 else " - ") if sign < 0 else ("" if i == 0 else " + ")
        text += f"{abs(coeff)}*{fn}({arg})"
        factors = [("num", abs(coeff)), ("trig", fn, freq, letter, j)]
        terms.append((sign, ("mul", factors)))
    return ("sum", terms), text

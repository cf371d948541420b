"""Parser and evaluator for the weight expression grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruspos import (
    ConfigError,
    TorusGeometry,
    evaluate_expression,
    parse_expression,
    random_expression,
    scalar_field_from_expression,
)
from toruspos.expressions import _draw_expression, expression_coordinates, tokenize


def test_tokenize_splits_numbers_names_symbols():
    toks = tokenize("0.5*sin(2*x1) - cos(y2)")
    kinds = [k for k, _ in toks]
    assert kinds == [
        "number", "symbol", "name", "symbol", "number", "symbol", "name",
        "symbol", "symbol", "name", "symbol", "name", "symbol",
    ]


def test_tokenize_rejects_garbage():
    with pytest.raises(ConfigError):
        tokenize("sin(x1) @ 2")


@pytest.mark.parametrize(
    "text",
    [
        "tan(x1)",          # unknown function
        "sin(x1",           # missing close paren
        "sin(1.5*x1)",      # non-integer frequency
        "sin(x0)",          # 0 is not a valid index
        "x1",               # bare coordinate is not a factor
        "sin(x1))",         # trailing input
        "2 +",              # dangling operator
        "",                 # empty
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_expression(text)


def test_parse_collects_coordinates():
    tree = parse_expression("sin(x1)*cos(y2) + 0.5 - sin(2*x2)")
    assert expression_coordinates(tree) == {("x", 1), ("y", 2), ("x", 2)}


def test_evaluate_zero_literal():
    g = TorusGeometry.regular(2, 8)
    assert np.max(np.abs(evaluate_expression("0", g))) == 0.0


def test_evaluate_matches_numpy():
    g = TorusGeometry.regular(2, 8)
    xs = g.coordinate_arrays()
    got = evaluate_expression("cos(2*y2) - 0.25*sin(x1)*cos(x2)", g)
    want = np.cos(2 * xs[3]) - 0.25 * np.sin(xs[0]) * np.cos(xs[2])
    assert np.max(np.abs(got - want)) < 1e-15


def test_evaluate_leading_minus():
    g = TorusGeometry.regular(1, 8)
    x = g.coordinate_arrays()[0]
    got = evaluate_expression("-sin(x1) + 1", g)
    assert np.max(np.abs(got - (1.0 - np.sin(x)))) < 1e-15


def test_coordinate_out_of_range_for_dimension():
    g = TorusGeometry.regular(1, 8)
    with pytest.raises(ConfigError, match="out of range"):
        evaluate_expression("sin(x2)", g)


@pytest.mark.parametrize(
    "text,samples,period,match",
    [
        ("sin(5*x1)", 8, 2 * np.pi, "Nyquist"),     # aliases onto mode 3
        ("sin(4*y1)", 8, 2 * np.pi, "Nyquist"),     # the zeroed Nyquist mode
        ("sin(x1)*cos(x1)", 4, 2 * np.pi, "Nyquist"),  # carries mode 2
        ("sin(x1)", 8, 3.0, "not periodic"),
        ("sin(x1)*cos(2*x1)", 8, 2 * np.pi / 3, "not periodic"),  # modes 1, 1/3
    ],
)
def test_unresolved_or_non_periodic_weights_are_rejected(text, samples, period, match):
    g = TorusGeometry.regular(1, samples, period)
    with pytest.raises(ConfigError, match=match):
        evaluate_expression(text, g)


def test_resolved_weights_on_other_periods_are_accepted():
    """sin(x) cos(x) = sin(2x)/2 is periodic on pi although each factor is not."""
    g = TorusGeometry.regular(1, 8, np.pi)
    x = g.coordinate_arrays()[0]
    got = evaluate_expression("sin(x1)*cos(x1) + cos(6*y1)", g)
    want = 0.5 * np.sin(2 * x) + np.cos(6 * g.coordinate_arrays()[1])
    assert np.max(np.abs(got - want)) < 1e-14
    # A single factor carries mode 3 * pi / (2 pi) = 1.5.
    with pytest.raises(ConfigError, match="not periodic"):
        evaluate_expression("sin(3*x1)", g)


def test_scalar_field_from_expression_wraps_geometry():
    g = TorusGeometry.regular(1, 8)
    field = scalar_field_from_expression(g, "0.5*cos(x1)")
    assert field.geometry == g
    assert field.values.shape == g.grid_shape


def test_random_expression_is_seed_deterministic():
    a = [random_expression(np.random.default_rng(7), 2) for _ in range(20)]
    b = [random_expression(np.random.default_rng(7), 2) for _ in range(20)]
    assert a == b


def test_random_expression_always_parses_and_round_trips():
    g = TorusGeometry.regular(2, 8)
    rng = np.random.default_rng(3)
    zeros = 0
    for _ in range(300):
        text = random_expression(rng, 2, amplitude=0.5)
        vals = evaluate_expression(text, g)
        assert np.all(np.isfinite(vals))
        if text == "0":
            zeros += 1
    # about a fifth of draws should be the flat weight
    assert 30 <= zeros <= 110


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(-2.0, 2.0, allow_nan=False),
    n=st.integers(1, 3),
)
def test_random_expression_text_round_trips_for_either_sign(seed, amplitude, n):
    """The drawn text parses to the drawn tree whatever the amplitude's
    sign (a negative coefficient is written as the term's sign), and the
    draw with the amplitude negated evaluates to the negated field."""

    def draw(a):
        return _draw_expression(np.random.default_rng(seed), n, amplitude=a)

    tree, text = draw(amplitude)
    assert parse_expression(text) == tree
    assert random_expression(np.random.default_rng(seed), n, amplitude=amplitude) == text
    g = TorusGeometry.regular(n, 8 if n < 3 else 6)
    assert np.array_equal(
        evaluate_expression(draw(-amplitude)[1], g), -evaluate_expression(text, g)
    )


def test_a_negative_amplitude_is_written_as_term_signs():
    text = random_expression(np.random.default_rng(0), 1, amplitude=-0.5)
    assert text == "-0.1164*sin(x1) - 0.4253*cos(2*y1)"
    assert parse_expression(text) == _draw_expression(
        np.random.default_rng(0), 1, amplitude=-0.5
    )[0]


def test_random_expression_respects_amplitude():
    g = TorusGeometry.regular(1, 16)
    rng = np.random.default_rng(4)
    for _ in range(50):
        text = random_expression(rng, 1, amplitude=0.01, max_terms=3)
        vals = evaluate_expression(text, g)
        assert np.max(np.abs(vals)) <= 3 * 0.01 + 1e-12


def _meshgrid_reference(text, geometry):
    """The evaluation on full ``meshgrid`` coordinate arrays, node by node."""
    arrays = np.meshgrid(
        *(geometry.axis_coordinates(a) for a in range(2 * geometry.complex_dim)),
        indexing="ij",
    )
    shape = geometry.grid_shape

    def ev(tree):
        kind = tree[0]
        if kind == "num":
            return np.full(shape, tree[1])
        if kind == "trig":
            _, fn, freq, letter, index = tree
            arg = freq * arrays[2 * (index - 1) + (letter == "y")]
            return np.sin(arg) if fn == "sin" else np.cos(arg)
        if kind == "mul":
            out = ev(tree[1][0])
            for node in tree[1][1:]:
                out = out * ev(node)
            return out
        out = np.zeros(shape)
        for sign, node in tree[1]:
            out = out + sign * ev(node)
        return out

    return ev(parse_expression(text))


_ONE_DIM_TEXTS = ["0", "-1.75", "sin(x1)*cos(x1)"]
_FIXED_TEXTS = _ONE_DIM_TEXTS + ["0.3*sin(x1)*sin(x1) - 2*cos(y2)"]

# (geometry, fixed texts, max_frequency of the random draws). A 4-point
# axis resolves modes below 2 only, so 4^6 takes products across axes.
# The last two have non-default periods. In the first of them, period pi
# on x1 gives single factors half modes that only products resolve, so it
# takes no random draws.
_BIT_IDENTITY_CASES = [
    (TorusGeometry.regular(1, 64), _ONE_DIM_TEXTS, 2),
    (TorusGeometry.regular(2, 8), _FIXED_TEXTS, 2),
    (TorusGeometry.regular(3, 4), ["0", "-1.75", "0.3*sin(x1)*sin(y3) - 2*cos(y2)"], 1),
    (
        TorusGeometry(2, (8, 16, 8, 8), (np.pi, 4 * np.pi, 2 * np.pi, 2 * np.pi)),
        _FIXED_TEXTS,
        None,
    ),
    (
        TorusGeometry(2, (16, 8, 16, 16), (4 * np.pi, 2 * np.pi, 2 * np.pi, 6 * np.pi)),
        _FIXED_TEXTS,
        2,
    ),
]


@pytest.mark.parametrize("geometry,fixed_texts,max_frequency", _BIT_IDENTITY_CASES)
def test_per_axis_evaluation_is_bit_identical_to_meshgrid(
    geometry, fixed_texts, max_frequency
):
    n = geometry.complex_dim
    texts = list(fixed_texts)
    if max_frequency is not None:
        rng = np.random.default_rng(17 + n)
        texts += [
            random_expression(rng, n, amplitude=0.5, max_frequency=max_frequency)
            for _ in range(30)
        ]
    for text in texts:
        got = evaluate_expression(text, geometry)
        want = _meshgrid_reference(text, geometry)
        assert got.shape == geometry.grid_shape and got.dtype == np.float64
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), text

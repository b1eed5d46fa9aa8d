"""Expression language: evaluation against the math module, error positions."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regularflow.errors import EvaluationError, ExpressionError
from regularflow.expressions import (
    FUNCTIONS, VARIABLES, _tokenize, parse_expression)


@pytest.mark.parametrize("text,arg,expected", [
    ("1 + 2*3", 0.0, 7.0),
    ("(1 + 2)*3", 0.0, 9.0),
    ("2^3^2", 0.0, 512.0),          # right-associative power
    ("-x^2", 3.0, -9.0),            # unary minus binds looser than ^
    ("--x", 2.5, 2.5),
    ("7/2/2", 0.0, 1.75),           # left-associative division
    ("1e-3 + 2E2", 0.0, 200.001),
    ("x*x - 2*x + 1", 4.0, 9.0),
])
def test_arithmetic(text, arg, expected):
    fn = parse_expression(text)
    assert fn(arg) == pytest.approx(expected, rel=0, abs=1e-15)


@pytest.mark.parametrize("name,ref", [
    ("sin", math.sin),
    ("cos", math.cos),
    ("exp", math.exp),
    ("log", math.log),
    ("sqrt", math.sqrt),
    ("atan", math.atan),
])
def test_functions_match_math_module(name, ref):
    fn = parse_expression(f"{name}(x)")
    for arg in (0.25, 1.0, 2.5):
        assert fn(arg) == pytest.approx(ref(arg), rel=1e-15)


def test_variable_aliases_bind_the_same_argument():
    vals = {parse_expression(f"{v} + 1")(2.0) for v in ("x", "y", "r")}
    assert vals == {3.0}


def test_vectorized_evaluation():
    fn = parse_expression("sin(x) + x^2")
    xs = np.linspace(-2.0, 2.0, 11)
    out = fn(xs)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, np.sin(xs) + xs**2, rtol=1e-15)


def test_scalar_in_scalar_out():
    assert isinstance(parse_expression("x + 1")(1.0), float)


@pytest.mark.parametrize("bad", ["1 +", "foo(x)", "1 2", "", "   ", "(x", "x )"])
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_error_carries_position():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("1 + bogus(x)")
    msg = str(exc.value)
    assert "bogus" in msg
    assert exc.value.column == 5
    assert exc.value.line == 1


def test_error_position_second_line():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("1 +\n    ?")
    assert exc.value.line == 2


def test_non_string_rejected():
    with pytest.raises(ExpressionError):
        parse_expression(12)


def test_no_attribute_or_call_surface():
    # the grammar has no attribute access, subscripts or arbitrary names,
    # so scenario files cannot reach interpreter internals
    for text in ("__import__(x)", "x.__class__", "x[0]"):
        with pytest.raises(ExpressionError):
            parse_expression(text)


#############################################################
# Compiled evaluator against a tree-walking reference
#############################################################


def _reference(text):
    """Closure-per-node evaluator over the same grammar: the semantics the
    compiled function must reproduce bit for bit."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]].kind

    def take():
        pos[0] += 1
        return tokens[pos[0] - 1]

    def expr():
        node = term()
        while peek() in "+-":
            op, lhs, rhs = take().kind, node, term()
            node = (lambda t, a=lhs, b=rhs: a(t) + b(t)) if op == "+" else \
                (lambda t, a=lhs, b=rhs: a(t) - b(t))
        return node

    def term():
        node = unary()
        while peek() in "*/":
            op, lhs, rhs = take().kind, node, unary()
            node = (lambda t, a=lhs, b=rhs: a(t) * b(t)) if op == "*" else \
                (lambda t, a=lhs, b=rhs: a(t) / b(t))
        return node

    def unary():
        negative = False
        while peek() in "+-":
            negative ^= take().kind == "-"
        node = power()
        return (lambda t, a=node: -a(t)) if negative else node

    def power():
        base = atom()
        if peek() == "^":
            take()
            expo = unary()
            return lambda t, a=base, b=expo: _real(a(t) ** b(t))
        return base

    def atom():
        tok = take()
        if tok.kind == "number":
            return lambda t, v=tok.value: v
        if tok.kind == "(":
            node = expr()
            take()
            return node
        if tok.value in FUNCTIONS:
            take()
            arg = expr()
            take()
            return lambda t, f=FUNCTIONS[tok.value], a=arg: f(a(t))
        return lambda t: t

    fn = expr()
    assert peek() == "end"
    return fn


def _real(value):
    # a negative base to a fractional power has no real value, wherever in
    # the expression the power sits
    if isinstance(value, complex):
        raise EvaluationError("complex power")
    return value


def _bits(value):
    return struct.pack("<d", value)


def _outcome(fn, arg):
    """Bits of float(fn(arg)), or "raises" for the failures a scalar call
    turns into EvaluationError."""
    try:
        with np.errstate(all="ignore"):
            return _bits(float(fn(arg)))
    except (ZeroDivisionError, OverflowError, TypeError, EvaluationError):
        return "raises"


_numbers = st.one_of(
    st.integers(min_value=0, max_value=1000).map(str),
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.sampled_from(["1e999", "1e-320", "0.5", "2E2", "1e-3", "0"]),
)
_leaves = st.one_of(_numbers, st.sampled_from(VARIABLES))


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(" ".join),
        st.tuples(st.sampled_from(["-", "+", "--"]), children).map("".join),
        children.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(
            lambda p: f"{p[0]}({p[1]})"),
    )


_expressions = st.recursive(_leaves, _grow, max_leaves=12)
_arguments = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 0.5, -2.0, 1.0]),
)


@settings(max_examples=400, deadline=None)
@given(text=_expressions, arg=_arguments, numpy_scalar=st.booleans())
def test_compiled_matches_reference_bit_for_bit(text, arg, numpy_scalar):
    if numpy_scalar:
        arg = np.float64(arg)
    assert _outcome(parse_expression(text), arg) == \
        _outcome(_reference(text), arg)


@pytest.mark.parametrize("text,arg,expected", [
    ("1e999", 0.0, math.inf),           # a literal that overflows to inf
    ("-1e999 + x", 1.0, -math.inf),
    ("--x", -0.0, -0.0),                # double minus is no negation at all
    ("2^3^2", 0.0, 512.0),
    ("-x^2", -3.0, -9.0),
    ("2^-x", 2.0, 0.25),
    ("x^0.5", 4.0, 2.0),
])
def test_edge_cases_match_reference(text, arg, expected):
    assert _bits(parse_expression(text)(arg)) == _bits(expected)
    assert _outcome(_reference(text), arg) == _bits(expected)


def test_fractional_power_of_negative_number_is_an_evaluation_error():
    fn = parse_expression("x^0.5")
    with pytest.raises(EvaluationError, match="complex"):
        fn(-2.0)
    with np.errstate(invalid="ignore"):
        assert math.isnan(fn(np.array([-2.0]))[0])


@pytest.mark.parametrize("text", ["sqrt(x^0.5)", "exp(x^0.5)"])
def test_complex_intermediate_power_is_an_evaluation_error(text):
    # a numpy function of the complex power used to drop its imaginary part
    fn = parse_expression(text)
    with pytest.raises(EvaluationError, match="complex") as exc:
        fn(-4.0)
    assert exc.value.text == text and exc.value.argument == -4.0
    assert _outcome(_reference(text), -4.0) == "raises"
    assert _bits(fn(4.0)) == _outcome(_reference(text), 4.0)
    with np.errstate(invalid="ignore"):
        assert math.isnan(fn(np.array([-4.0]))[0])


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(["x^1.5", "2^x", "x^2", "x^0.5", "sqrt(x^0.5)"]),
       xs=st.lists(_arguments, min_size=1, max_size=24))
@example(text="x^1.5", xs=[0.0021000000000000003, 0.0057])
@example(text="2^x", xs=[0.001, 0.004])
@example(text="x^2", xs=[0.0397])
@example(text="x^0.5", xs=[0.20900000000000002, -1.0])
def test_array_calls_of_powers_have_the_scalar_bits(text, xs):
    # Python's power element by element: numpy's own power differs from
    # it in the last bit at some points and reads x^0.5 as a square root
    fn = parse_expression(text)
    out = fn(np.array(xs))
    for x, got in zip(xs, out.tolist()):
        try:
            want = fn(x)
        except EvaluationError:
            assert not math.isfinite(got)
            continue
        if math.isfinite(want):
            assert _bits(got) == _bits(want)


def test_an_array_call_raises_where_a_part_free_of_the_argument_is_complex():
    # numpy's power took the real part of (-8)^(1/3) here
    fn = parse_expression("(-8)^(1/3)*x")
    with pytest.raises(EvaluationError, match="complex"):
        fn(np.array([1.0, 2.0]))
    with pytest.raises(EvaluationError, match="complex"):
        fn(1.0)


@pytest.mark.parametrize("text,arg", [
    ("1/(x - 0.5)^2", 0.5),
    ("(1 + x)/(x - 2)", 2.0),
    ("10^(400*x)", 1.0),
])
def test_scalar_division_by_zero_and_overflow_name_text_and_argument(text, arg):
    with pytest.raises(EvaluationError) as exc:
        parse_expression(text)(arg)
    assert exc.value.text == text and exc.value.argument == arg
    assert text in str(exc.value) and repr(arg) in str(exc.value)
    assert not isinstance(exc.value, ExpressionError)


def test_array_call_silences_floating_point_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = parse_expression("1/(x - 0.5)^2 + log(x)")(np.array([0.5, 0.0]))
    assert out.tolist() == [math.inf, -math.inf]


@pytest.mark.parametrize("text", [
    " + ".join(["x"] * 20000),          # too long for the Python compiler
    "(" * 300 + "x" + ")" * 300,        # too deep for the recursive parser
])
def test_too_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_expression(text)
    assert parse_expression(" + ".join(["x"] * 500))(1.0) == 500.0


@pytest.mark.parametrize("text", [
    "-atan(x)", "-x", "1/r", "1/(2 + y*y)", "1 - x/2", "1 + x",
    "1/(x - 0.5)^2", "x^0.5", "sqrt(x) * exp(-x^2) + log(x)",
    "cos(3*x)^3 - sin(x/7)", "2^x^0.5 / (1 + x^2)",
])
def test_scalar_and_array_calls_agree(text):
    fn = parse_expression(text)
    xs = np.linspace(-3.0, 3.0, 601)
    arr = fn(xs)
    for x, a in zip(xs, arr):
        try:
            with np.errstate(all="ignore"):
                s = fn(float(x))
        except EvaluationError:
            continue
        if math.isfinite(s) and math.isfinite(a):
            assert s == pytest.approx(a, rel=1e-13, abs=1e-300)


def test_an_array_call_can_raise_where_an_element_divides_by_zero():
    # a later function turns the inf of 1/0 into a finite value, so only the
    # divisor shows where a scalar call raises
    f = parse_expression("exp(-1/((x - 0.5)*(x - 0.5)))")
    xs = np.array([0.25, 0.5])
    assert f(xs)[1] == 0.0
    with pytest.raises(EvaluationError):
        f(0.5)
    with pytest.raises(FloatingPointError):
        f(xs, divide="raise")
    assert f(np.array([0.25]), divide="raise")[0] == f(0.25)

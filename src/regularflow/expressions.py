"""Tiny arithmetic expression language for scenario files.

Grammar (conventional precedence, ``^`` binds tightest and associates right):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' unary)?
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, log, sqrt, atan.  The single free variable may be
written ``x``, ``y`` or ``r``; all three names bind the same argument.  Parse
errors carry 1-based line/column positions; a scalar argument at which the
expression has no real value raises ``EvaluationError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError, ExpressionError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
}

VARIABLES = ("x", "y", "r")

_NUMBER_CHARS = set("0123456789.")


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c in "+-*/^()":
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        if c in _NUMBER_CHARS:
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ExpressionError(f"bad number literal {lexeme!r}", line, start_col)
            tokens.append(_Token("number", value, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    """Recursive descent over the tokens, emitting Python source.

    Python's own precedence and associativity for ``+ - * / **`` and unary
    minus match the grammar, so each rule emits its operands and operators
    in order and the parenthesised atoms the text already has; ``^``
    becomes a call of ``_pow``, Python's power (``_power``).
    The source holds only the argument ``t``, the names ``_c<i>`` of number
    literals (bound as values: ``repr(1e999)`` would read back as the name
    ``inf``), ``_pow`` and the names in ``FUNCTIONS``; nothing of the
    scenario text reaches it.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.constants = {}
        self.names_variable = False

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            shown = "end of input" if tok.kind == "end" else repr(tok.value)
            raise ExpressionError(f"expected {kind!r}, found {shown}", tok.line, tok.column)
        return self.advance()

    def parse_expr(self):
        src = self.parse_term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            src = f"{src} {op} {self.parse_term()}"
        return src

    def parse_term(self):
        src = self.parse_unary()
        while self.peek().kind in "*/":
            op = self.advance().kind
            src = f"{src} {op} {self.parse_unary()}"
        return src

    def parse_unary(self):
        sign = 1.0
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -sign
        src = self.parse_power()
        return "-" + src if sign < 0 else src

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            return f"_pow({base}, {self.parse_unary()})"
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            name = f"_c{len(self.constants)}"
            self.constants[name] = tok.value
            return name
        if tok.kind == "(":
            self.advance()
            src = self.parse_expr()
            self.expect(")")
            return f"({src})"
        if tok.kind == "name":
            self.advance()
            name = tok.value
            if name in VARIABLES:
                self.names_variable = True
                return "t"
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return f"{name}({arg})"
            raise ExpressionError(
                f"unknown name {name!r} (variables: x, y, r; functions: "
                + ", ".join(sorted(FUNCTIONS)) + ")",
                tok.line, tok.column,
            )
        shown = "end of input" if tok.kind == "end" else repr(tok.value)
        raise ExpressionError(f"expected a value, found {shown}", tok.line, tok.column)


class _ComplexPower(ArithmeticError):
    """A negative base to a fractional power: a complex number."""


def _element_power(base, exponent):
    """Python's power of two floats: nan where it is complex and, where it
    raises, numpy's (inf, or FloatingPointError under ``divide="raise"``)."""
    try:
        out = base ** exponent
    except (ZeroDivisionError, OverflowError):
        return np.power(base, exponent)
    return math.nan if isinstance(out, complex) else out


def _power(base, exponent):
    """``^``: Python's power, refusing a complex result; element by element
    where an operand is an array, so each element has a scalar call's bits."""
    if isinstance(base, np.ndarray) or isinstance(exponent, np.ndarray):
        base, exponent = np.broadcast_arrays(base, exponent)
        return np.array([_element_power(b, e) for b, e in zip(
            base.ravel().tolist(), exponent.ravel().tolist())],
            dtype=float).reshape(base.shape)
    out = base ** exponent
    if isinstance(out, complex):
        raise _ComplexPower
    return out


def _compile(src, constants):
    """The function ``t -> value`` of the emitted source."""
    try:
        code = compile(f"def _expression(t):\n    return {src}\n",
                       "<expression>", "exec")
    except (SyntaxError, RecursionError, MemoryError):
        raise ExpressionError("expression is nested too deeply") from None
    namespace = {"__builtins__": {}, **FUNCTIONS, **constants, "_pow": _power}
    exec(code, namespace)
    return namespace["_expression"]


class Expression:
    """A compiled expression: callable on floats and numpy arrays.

    Scalars run the compiled function as is, so arithmetic stays in Python
    floats until a numpy function is applied; division by zero, overflow
    and a complex power of a negative base, wherever in the expression it
    occurs, raise ``EvaluationError``.  Arrays run the same function, ``^``
    element by element, under ``np.errstate`` with floating-point warnings
    off: an element has a scalar call's bits where that is finite and is inf
    or nan where it raises, and a failing part free of the argument
    (``(-8)^(1/3)*x``) raises ``EvaluationError``.
    ``divide="raise"`` makes an array call raise ``FloatingPointError``
    wherever an element divides by zero, since a later operation can turn
    that inf into a finite value (``exp(-1/0)``) where a scalar call raises.
    ``names_variable`` is False for a text that never names its variable,
    whose value is then one number, repeated to the shape of an array.
    """

    def __init__(self, text):
        tokens = _tokenize(text)
        parser = _Parser(tokens)
        try:
            src = parser.parse_expr()
        except RecursionError:
            raise ExpressionError("expression is nested too deeply") from None
        tail = parser.peek()
        if tail.kind != "end":
            raise ExpressionError(
                f"unexpected trailing input {tail.value!r}", tail.line, tail.column
            )
        self._fn = _compile(src, parser.constants)
        self.text = text
        self.names_variable = parser.names_variable

    def __call__(self, t, *, divide="ignore"):
        try:
            if isinstance(t, float) or np.isscalar(t):
                return float(self._fn(t))
            with np.errstate(divide=divide, invalid="ignore", over="ignore"):
                out = np.asarray(self._fn(t), dtype=float)
            return out if self.names_variable else np.full(np.shape(t), out)
        except _ComplexPower:
            raise self._evaluation_error(t, "complex result") from None
        except (ZeroDivisionError, OverflowError) as exc:
            raise self._evaluation_error(t, exc) from None

    def _evaluation_error(self, t, why):
        where = (f"at {t!r}" if isinstance(t, float) or np.isscalar(t)
                 else f"on an array of {np.size(t)} points")
        return EvaluationError(
            f"expression {self.text!r} cannot be evaluated {where}: {why}",
            text=self.text, argument=t)

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse_expression(text):
    """Compile ``text`` into a callable; raises ExpressionError on bad input."""
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
    if not text.strip():
        raise ExpressionError("empty expression")
    return Expression(text)

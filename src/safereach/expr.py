"""Safe arithmetic expression parsing for user-defined fields and functions.

Expressions are written over the variables ``x1 .. xn`` (or a custom variable
list such as ``b`` for relaxation functions) with ``+ - * / ^ **``, unary
minus, parentheses, numeric literals, and the functions sin, cos, tan, exp,
log, sqrt, abs, atan, min, max.  An expression is parsed once into a callable
that evaluates vectorized over trailing state axes.
"""

from __future__ import annotations

import ast
import numpy as np

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "atan": np.arctan,
    "min": np.minimum,
    "max": np.maximum,
}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
    ast.UAdd, ast.Mod,
)


class ExpressionError(ValueError):
    pass


def _validate(tree: ast.AST, variables: tuple[str, ...]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(f"disallowed syntax: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError("only sin/cos/tan/exp/log/sqrt/abs/atan/min/max calls allowed")
            if node.keywords:
                raise ExpressionError("keyword arguments not allowed")
        if isinstance(node, ast.Name):
            if node.id not in variables and node.id not in _FUNCS and node.id != "pi":
                raise ExpressionError(f"unknown symbol '{node.id}'")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric literals allowed")


def compile_expression(text: str, variables: tuple[str, ...]):
    """Compile ``text`` into fn(X) with X of shape (..., len(variables))."""
    source = text.replace("^", "**").strip()
    if not source:
        raise ExpressionError("empty expression")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse '{text}': {exc.msg}") from exc
    _validate(tree, variables)
    code = compile(tree, "<expression>", "eval")
    names = {**_FUNCS, "pi": np.pi, "__builtins__": {}}

    def fn(X):
        X = np.asarray(X, dtype=float)
        local = {v: X[..., i] for i, v in enumerate(variables)}
        out = eval(code, names, local)  # noqa: S307 - AST whitelisted
        shape = X.shape[:-1]
        # a fresh result is returned as is; a constant or a bare variable (a
        # view into X) is copied out at the batch shape
        if (type(out) is np.ndarray and out.base is None and out.dtype == np.float64
                and out.shape == shape):
            return out
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    fn.source = text
    fn.variables = variables
    return fn


def compile_scalar_expression(text: str, variable: str = "b"):
    """Compile a 1-D expression, returning fn(value) -> value (vectorized)."""
    inner = compile_expression(text, (variable,))

    def fn(v):
        v = np.asarray(v, dtype=float)
        return inner(v[..., None])

    fn.source = text
    return fn

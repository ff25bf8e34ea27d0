"""Single-variable expression front-end: parser, printer, evaluation, dual-number AD.

Grammar (whitespace insensitive; 'x' and 't' denote the same variable):

    expr    := unary (binop unary)*
    unary   := '-' unary | primary
    primary := number | 'x' | 't' | func '(' expr ')' | '(' expr ')'
    func    := 'sin' | 'cos' | 'exp' | 'ln' | 'sqrt' | 'abs'

A binop is one of the binary operators, each defined once in the table _BINARY
that the parser, printer and compiler share: '+' and '-' bind loosest, then
'*' and '/', then '^', which alone groups to the right.  Note the power binds
a whole unary, so "-x^2" parses as (-x)^2.  Number literals must be finite,
and a tree may nest at most MAX_DEPTH levels.  Integer exponents (within 1e-12
of an integer) are evaluated by repeated multiplication, which keeps negative
bases exact; a non-integer exponent over a negative base is a domain error
(real-only semantics).  Any float fault while evaluating a node is a
DomainError that quotes the node.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable
from functools import partial

from .errors import DomainError, Record, ValidationError

__all__ = [
    "Add",
    "Call",
    "Constant",
    "Div",
    "DualNumber",
    "Expr",
    "Mul",
    "Neg",
    "ParseError",
    "Pow",
    "Sub",
    "UnknownIdentifierError",
    "Variable",
    "as_dual_fn",
    "as_fn",
    "evaluate",
    "evaluate_dual",
    "parse",
    "unparse",
]

# Deepest accepted tree: every operator, call, unary minus and parenthesized
# group is one level.  Parsing takes at most four stack frames per level and
# printing, compiling or evaluating at most two, well inside Python's default
# recursion limit of 1000.
MAX_DEPTH = 100


class Expr(Record):
    """Base class for expression-tree nodes.

    The parser builds nodes in bulk, so each node sets its slots with
    object.__setattr__ directly instead of through Record.__init__.
    """

    __slots__ = ()


class Constant(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Variable(Expr):
    __slots__ = ()

    def __init__(self):
        pass


class Add(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Sub(Expr):
    __slots__ = ("left", "right")
    __init__ = Add.__init__


class Mul(Expr):
    __slots__ = ("left", "right")
    __init__ = Add.__init__


class Div(Expr):
    __slots__ = ("left", "right")
    __init__ = Add.__init__


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


class ParseError(ValidationError):
    """Syntax error carrying the byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at byte {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+)"
    r"|(?P<op>[-+*/^()])"
)

_PRIMARY_EXPECTED = ("number", "'x'", "'t'", "function name", "'('", "'-'")


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"unrecognized character {source[pos]!r}", _byte_offset(source, pos)
            )
        kind = m.lastgroup
        text = m.group()
        tokens.append((kind if kind != "op" else text, text, pos))
        pos = m.end()
    return tokens


class _Parser:
    """Precedence climbing over unaries, returning (node, depth): `parse_expr`
    is the one loop over the binary operators.  ``level`` counts the groups,
    minuses and exponents around the current token, which stops recursion
    early; the returned depths catch left-deep chains, which never recurse."""

    def __init__(self, source: str, tokens: list[tuple[str, str, int]]):
        self.source = source
        self.tokens = tokens
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...]):
        tok = self.peek()
        if tok is None:
            offset = _byte_offset(self.source, len(self.source))
            raise ParseError(f"{message}: unexpected end of input", offset, expected)
        raise ParseError(
            f"{message}: unexpected {tok[1]!r}", _byte_offset(self.source, tok[2]), expected
        )

    def expect(self, op: str, context: str):
        tok = self.peek()
        if tok is None or tok[0] != op:
            self.fail(context, (f"'{op}'",))
        return self.advance()

    def too_deep(self, tok):
        raise ParseError(
            f"expression nests deeper than {MAX_DEPTH} levels", _byte_offset(self.source, tok[2])
        )

    def nest(self, tok, *depths: int) -> int:
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            self.too_deep(tok)
        return depth

    def enclosed(self, tok, parse, *args):
        if self.level >= MAX_DEPTH:
            self.too_deep(tok)
        self.level += 1
        node, depth = parse(*args)
        self.level -= 1
        return node, depth

    def parse_expr(self, floor: int = 0) -> tuple[Expr, int]:
        """A unary and each operator binding at ``floor`` or tighter after it.  A
        right operand binds one level tighter, but an exponent groups right."""
        node, depth = self.parse_unary()
        while (tok := self.peek()) is not None and (op := _INFIX.get(tok[0])) and op[1] >= floor:
            node_type, level = op
            self.advance()
            if node_type is _RIGHT:
                right, right_depth = self.enclosed(tok, self.parse_expr, level)
            else:
                right, right_depth = self.parse_expr(level + 1)
            node = node_type(node, right)
            depth = self.nest(tok, depth, right_depth)
        return node, depth

    def parse_unary(self) -> tuple[Expr, int]:
        if (tok := self.peek()) is not None and tok[0] == "-":
            self.advance()
            operand, depth = self.enclosed(tok, self.parse_unary)
            return Neg(operand), self.nest(tok, depth)
        return self.parse_primary()

    def parse_primary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok is None:
            self.fail("expected a value", _PRIMARY_EXPECTED)
        kind, text, pos = tok
        if kind == "number":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} is not finite", _byte_offset(self.source, pos))
            return Constant(value), 0
        if kind == "name":
            self.advance()
            if text in ("x", "t"):
                return Variable(), 0
            if text in _FUNCTION_RULES:
                self.expect("(", f"after function '{text}'")
                arg, depth = self.enclosed(tok, self.parse_expr)
                self.expect(")", f"closing the argument of '{text}'")
                return Call(text, arg), self.nest(tok, depth)
            raise UnknownIdentifierError(text, _byte_offset(self.source, pos))
        if kind == "(":
            self.advance()
            node, depth = self.enclosed(tok, self.parse_expr)
            self.expect(")", "closing a parenthesized expression")
            return node, self.nest(tok, depth)
        self.fail("expected a value", _PRIMARY_EXPECTED)


def parse(source: str) -> Expr:
    """Parse source text into an expression tree."""
    if not isinstance(source, str):
        raise ValidationError(f"expression source must be a string, got {type(source).__name__}")
    parser = _Parser(source, _tokenize(source))
    node, _ = parser.parse_expr()
    if parser.peek() is not None:
        parser.fail("trailing input", _OPERATOR_EXPECTED)
    return node


# Printing uses the parser's binding levels so parse(unparse(e)) == e.
def _fmt(e: Expr, required: int) -> str:
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, 0)})"
    if isinstance(e, Neg):
        natural = _LEVEL_UNARY
        body = "-" + _fmt(e.operand, _LEVEL_UNARY)
    elif (op := _BINARY.get(type(e))) is not None:
        symbol, natural = op[0], op[1]
        left, right = e._values()
        # The operand on the side the operator does not group to binds tighter.
        lo, hi = (natural + 1, natural) if type(e) is _RIGHT else (natural, natural + 1)
        body = _fmt(left, lo) + symbol + _fmt(right, hi)
    else:
        raise ValidationError(f"not an Expr node: {e!r}")
    return body if natural >= required else f"({body})"


def unparse(e: Expr) -> str:
    """Render a tree back to source text that reparses to the identical tree."""
    return _fmt(e, 0)


def _int_pow(base: float, n: int) -> float:
    # Square-and-multiply: repeated multiplication, so negative bases stay exact.
    # A float base keeps an int one from squaring exactly and without bound.
    acc = 1.0
    b = float(base)
    m = abs(n)
    while m:
        if m & 1:
            acc *= b
        m >>= 1
        if m:
            b *= b
    return 1.0 / acc if n < 0 else acc


def _frac_pow(base: float, p: float) -> float:
    if base < 0.0:
        raise ValueError("negative base with non-integer exponent")
    return base**p


def _pow(base: float, p: float) -> float:
    n = round(p)
    return _int_pow(base, n) if abs(p - n) < 1e-12 else _frac_pow(base, p)


class DualNumber(Record):
    """Value and first derivative propagated together (forward-mode AD).  Its
    operators take duals only; division and powers are _div_dual and _pow_dual."""

    __slots__ = ("val", "der")

    def __init__(self, val: float, der: float):
        # Built on every dual operation: set the slots directly, as the nodes do.
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "der", der)

    def __add__(self, other):
        return DualNumber(self.val + other.val, self.der + other.der)

    def __sub__(self, other):
        return DualNumber(self.val - other.val, self.der - other.der)

    def __mul__(self, other):
        return DualNumber(self.val * other.val, self.val * other.der + self.der * other.val)

    def __neg__(self):
        return DualNumber(-self.val, -self.der)


def _div_dual(a: DualNumber, b: DualNumber) -> DualNumber:
    return DualNumber(a.val / b.val, (a.der * b.val - a.val * b.der) / (b.val * b.val))


def _pow_dual(b: DualNumber, x: DualNumber) -> DualNumber:
    val = _pow(b.val, x.val)
    p = x.val
    if x.der != 0.0:
        # d(b^x) = b^x * (x' ln b + x b'/b); math.log rejects a non-positive base.
        return DualNumber(val, val * (x.der * math.log(b.val) + p * b.der / b.val))
    n = round(p)
    if abs(p - n) < 1e-12:
        return DualNumber(val, 0.0 if n == 0 else n * _int_pow(b.val, n - 1) * b.der)
    if b.val == 0.0:
        raise ValueError("fractional power is not differentiable at a zero base")
    return DualNumber(val, p * b.val ** (p - 1.0) * b.der)


# The binary operators, each defined once: node type -> (symbol, binding
# level, value rule, dual rule).  The parser, the printer and the compiler
# all read this table; a higher level binds tighter.  Every dual rule computes
# its .val with the value rule's own float operation, so the two paths agree
# bitwise by construction.
_BINARY = {
    Add: ("+", 0, operator.add, operator.add),
    Sub: ("-", 0, operator.sub, operator.sub),
    Mul: ("*", 1, operator.mul, operator.mul),
    Div: ("/", 1, operator.truediv, _div_dual),
    Pow: ("^", 2, _pow, _pow_dual),
}
# Token -> (node type, binding level), for the parser's loop.
_INFIX = {symbol: (node_type, level) for node_type, (symbol, level, *_) in _BINARY.items()}
_RIGHT = Pow  # the one operator that groups to the right; the others group left
_LEVEL_UNARY = 1 + max(level for _, level in _INFIX.values())  # tighter than every binary
_OPERATOR_EXPECTED = ("end of input", "')'", *[f"'{symbol}'" for symbol in _INFIX])

# Function name -> (value rule f, derivative rule (v, f(v)) -> f'(v)).  The
# rules do no domain checks of their own: math raises outside the domain, and
# v / |v| and 0.5 / sqrt(v) divide by zero at 0, where abs and sqrt are not
# differentiable.  The compiled node turns either into a DomainError.
_FUNCTION_RULES = {
    "abs": (abs, lambda v, fv: v / fv),
    "cos": (math.cos, lambda v, fv: -math.sin(v)),
    "exp": (math.exp, lambda v, fv: fv),
    "ln": (math.log, lambda v, fv: 1.0 / v),
    "sin": (math.sin, lambda v, fv: math.cos(v)),
    "sqrt": (math.sqrt, lambda v, fv: 0.5 / fv),
}


_FAULTS = (ValueError, OverflowError, ZeroDivisionError)
_NOT_CONSTANT = object()  # what _constant returns for an operand that does not fold


def _fault(node: Expr, exc: Exception):
    raise DomainError(f"cannot evaluate '{unparse(node)}' here ({exc.args[-1]})") from None


def _constant(e: Expr, dual: bool):
    """The value a literal or a negated number literal folds to, else _NOT_CONSTANT."""
    match e:
        case Constant(value=c):
            return DualNumber(c, 0.0) if dual else c
        case Neg(operand=Constant(value=float() | int()) as c):
            return -_constant(c, dual)
    return _NOT_CONSTANT


def _compile(e: Expr, dual: bool) -> Callable:
    """Walk the tree once into one closure of the variable: a real to the value,
    or with ``dual`` DualNumber(t, 1.0) to the dual value.  Each operator or
    call is one closure; it takes constant and variable operands in directly
    and turns a float fault into a DomainError quoting its node."""
    if (const := _constant(e, dual)) is not _NOT_CONSTANT:
        return lambda t: const
    match e:
        case Variable():
            return lambda t: t
        case Neg(operand=a):
            rule, args = operator.neg, [a]
        case Call(func=name, arg=a) if name in _FUNCTION_RULES:
            rule, slope = _FUNCTION_RULES[name]
            if dual:  # the chain rule: f(u) has the derivative f'(u.val) * u.der
                rule = lambda u, fn=rule: DualNumber(fv := fn(u.val), slope(u.val, fv) * u.der)
            args = [a]
        case Pow(a, b) if not dual and type(p := _constant(b, dual)) is float and math.isfinite(p):
            n = round(p)  # _pow's integer test, settled once
            rule, args = (_int_pow, [a, Constant(n)]) if abs(p - n) < 1e-12 else (_frac_pow, [a, b])
        case _ if (op := _BINARY.get(type(e))) is not None:
            rule, args = op[3 if dual else 2], list(e._values())
        case _:
            raise ValidationError(f"not a supported Expr node: {e!r}")
    if len(args) == 2 and (c := _constant(args[0], dual)) is not _NOT_CONSTANT:
        rule, args = partial(rule, c), args[1:]
    f = _compile(args[0], dual)
    if len(args) == 2 and (c := _constant(args[1], dual)) is _NOT_CONSTANT:
        g = _compile(args[1], dual)
        def node(t):
            try:
                return rule(f(t), g(t))
            except _FAULTS as exc:
                _fault(e, exc)
    elif isinstance(args[0], Variable) and len(args) == 1:
        def node(t):
            try:
                return rule(t)
            except _FAULTS as exc:
                _fault(e, exc)
    elif isinstance(args[0], Variable):
        def node(t):
            try:
                return rule(t, c)
            except _FAULTS as exc:
                _fault(e, exc)
    elif len(args) == 1:
        def node(t):
            try:
                return rule(f(t))
            except _FAULTS as exc:
                _fault(e, exc)
    else:
        def node(t):
            try:
                return rule(f(t), c)
            except _FAULTS as exc:
                _fault(e, exc)
    return node


def evaluate(e: Expr, t: float) -> float:
    """Evaluate the expression at variable value t."""
    return _compile(e, False)(t)


def evaluate_dual(e: Expr, t: float) -> DualNumber:
    """Evaluate the expression and its derivative at t; .val equals evaluate(e, t) bitwise."""
    return as_dual_fn(e)(t)


def as_fn(e: Expr) -> Callable[[float], float]:
    """Compile a tree once into a plain real-valued function of the variable."""
    return _compile(e, False)


def as_dual_fn(e: Expr) -> Callable[[float], DualNumber]:
    """Compile a tree once into a dual-valued function of the variable."""
    f = _compile(e, True)
    return lambda t: f(DualNumber(t, 1.0))

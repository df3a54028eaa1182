"""Expression layer of the kernel analyzer: lexer, parser, evaluation.

The generated CUDA sources use a small, disciplined C expression subset --
integer arithmetic over macros, thread/block builtins and local scalars,
comparisons joined by ``&&`` in boundary guards, and a couple of pseudo
intrinsics (``min``, ``_plane_index``).  This module turns that subset
into a tiny AST and provides two evaluators over it:

- :func:`eval_const` -- exact evaluation against a macro environment
  (used for shared-memory dimensions, launch geometry, loop trip counts);
- :func:`eval_interval` -- conservative interval arithmetic against an
  environment of variable ranges (used by the symbolic bounds checker:
  every value is tracked as a ``[lo, hi]`` range, with ``+/-inf`` for
  unknowns, so an access is provably in bounds only when its whole
  interval is).

Both evaluators are deliberately sound-over-complete: anything outside
the subset evaluates to "unknown" rather than raising mid-analysis.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ReproError

INF = math.inf


class ExprError(ReproError):
    """The analyzer could not lex or parse a C expression."""


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Num:
    """Integer or floating literal."""

    value: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Num({self.value!r})"


@dataclass(frozen=True)
class Name:
    """Identifier; dotted builtins (``threadIdx.x``) are one name."""

    id: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "!"
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / % < > <= >= == != && ||
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: "tuple[Expr, ...]"


@dataclass(frozen=True)
class Index:
    """Postfix subscript chain: ``base[i0][i1]...``."""

    base: "Expr"
    indices: "tuple[Expr, ...]"


Expr = "Num | Name | Unary | Bin | Call | Index"


def walk(node) -> "list":
    """All nodes of an expression tree, preorder."""
    out = [node]
    if isinstance(node, Unary):
        out += walk(node.operand)
    elif isinstance(node, Bin):
        out += walk(node.lhs) + walk(node.rhs)
    elif isinstance(node, Call):
        for a in node.args:
            out += walk(a)
    elif isinstance(node, Index):
        out += walk(node.base)
        for i in node.indices:
            out += walk(i)
    return out


def names_in(node) -> set[str]:
    """Identifiers referenced anywhere in the expression."""
    return {n.id for n in walk(node) if isinstance(n, Name)}


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:e[+-]?\d+)?|\.\d+|\d+)
    |(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
    |(?P<op><<|>>|<=|>=|==|!=|&&|\|\||[-+*/%<>!(),\[\]?:])
    |(?P<ws>\s+)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[str]:
    """Split a C expression into tokens; raises :class:`ExprError` on junk."""
    out: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"cannot lex {text[pos:pos + 20]!r} in {text!r}")
        if m.lastgroup != "ws":
            out.append(m.group())
        pos = m.end()
    return out


# ----------------------------------------------------------------------
# parser (precedence climbing)
# ----------------------------------------------------------------------
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ExprError(f"expected {tok!r}, got {got!r} in {self.source!r}")

    def parse(self):
        node = self.expression(0)
        if self.peek() is not None:
            raise ExprError(f"trailing tokens {self.tokens[self.pos:]} in {self.source!r}")
        return node

    def expression(self, min_prec: int):
        node = self.unary()
        while True:
            op = self.peek()
            prec = _PRECEDENCE.get(op or "")
            if prec is None or prec < min_prec:
                return node
            self.next()
            rhs = self.expression(prec + 1)
            node = Bin(op, node, rhs)

    def unary(self):
        tok = self.peek()
        if tok in ("-", "!", "+"):
            self.next()
            operand = self.unary()
            if tok == "+":
                return operand
            if tok == "-" and isinstance(operand, Num):
                return Num(-operand.value)
            return Unary(tok, operand)
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            tok = self.peek()
            if tok == "(" and isinstance(node, Name):
                self.next()
                args: list = []
                if self.peek() != ")":
                    args.append(self.expression(0))
                    while self.peek() == ",":
                        self.next()
                        args.append(self.expression(0))
                self.expect(")")
                node = Call(node.id, tuple(args))
            elif tok == "[":
                indices: list = []
                while self.peek() == "[":
                    self.next()
                    indices.append(self.expression(0))
                    self.expect("]")
                node = Index(node, tuple(indices))
            else:
                return node

    def primary(self):
        tok = self.next()
        if tok == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        if re.fullmatch(r"\d+\.\d*(?:e[+-]?\d+)?|\.\d+", tok):
            return Num(float(tok))
        if tok.isdigit():
            return Num(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", tok):
            return Name(tok)
        raise ExprError(f"unexpected token {tok!r} in {self.source!r}")


#: Distinct expression texts kept parsed.  A generated sweep repeats a
#: few hundred texts tens of thousands of times (every setting of a
#: kernel re-emits the same index arithmetic), so this never evicts on
#: one stencil's worth of estimates.
EXPR_CACHE_SIZE = 8192


@lru_cache(maxsize=EXPR_CACHE_SIZE)
def parse_expr(text: str):
    """Parse one C expression into the analyzer AST.

    Memoized by text: the AST nodes are frozen, so every caller may share
    one tree.  A text that fails raises :class:`ExprError` afresh on every
    call (``lru_cache`` never stores exceptions).
    """
    return _Parser(tokenize(text), text).parse()


# ----------------------------------------------------------------------
# exact evaluation
# ----------------------------------------------------------------------
def eval_const(node, env: "dict[str, float] | None" = None) -> "float | None":
    """Evaluate *node* exactly against *env*; ``None`` when not constant.

    Division follows C integer semantics when both operands are integral
    (truncation toward zero -- all generated divisions are non-negative).
    """
    env = env or {}
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return env.get(node.id)
    if isinstance(node, Unary):
        v = eval_const(node.operand, env)
        if v is None:
            return None
        return -v if node.op == "-" else float(not v)
    if isinstance(node, Call):
        args = [eval_const(a, env) for a in node.args]
        if any(a is None for a in args):
            return None
        if node.func == "min":
            return min(args)
        if node.func == "max":
            return max(args)
        return None
    if isinstance(node, Bin):
        lhs = eval_const(node.lhs, env)
        rhs = eval_const(node.rhs, env)
        if lhs is None or rhs is None:
            return None
        return _apply(node.op, lhs, rhs)
    return None


def _apply(op: str, lhs: float, rhs: float) -> "float | None":
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            return None
        if float(lhs).is_integer() and float(rhs).is_integer():
            return float(int(lhs) // int(rhs))  # non-negative in practice
        return lhs / rhs
    if op == "%":
        return lhs % rhs if rhs else None
    if op in ("<", ">", "<=", ">=", "==", "!="):
        return float(
            {"<": lhs < rhs, ">": lhs > rhs, "<=": lhs <= rhs,
             ">=": lhs >= rhs, "==": lhs == rhs, "!=": lhs != rhs}[op]
        )
    if op == "&&":
        return float(bool(lhs) and bool(rhs))
    if op == "||":
        return float(bool(lhs) or bool(rhs))
    return None


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` with infinite endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExprError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def top() -> "Interval":
        return Interval(-INF, INF)

    # -- predicates -----------------------------------------------------
    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def within(self, lo: float, hi: float) -> bool:
        """True when the whole interval fits inside ``[lo, hi]``."""
        return self.lo >= lo and self.hi <= hi

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = [
            _mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        """C integer division; exact only for positive point divisors."""
        if other.is_point and other.lo > 0 and other.lo not in (INF, -INF):
            d = other.lo
            lo = -INF if self.lo == -INF else float(math.floor(self.lo / d))
            hi = INF if self.hi == INF else float(math.floor(self.hi / d))
            return Interval(lo, hi)
        return Interval.top()

    def mod(self, other: "Interval") -> "Interval":
        if other.is_point and other.lo > 0 and other.lo not in (INF, -INF):
            return Interval(0, other.lo - 1)
        return Interval.top()

    def meet(self, other: "Interval") -> "Interval | None":
        """Intersection, ``None`` when disjoint."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi}]"


def _mul(a: float, b: float) -> float:
    """IEEE-safe product where ``0 * inf`` is 0 (integer semantics)."""
    if a == 0 or b == 0:
        return 0.0
    return a * b


def imin(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def imax(a: Interval, b: Interval) -> Interval:
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def eval_interval(node, env: "dict[str, Interval]", macros: "dict[str, float]") -> Interval:
    """Conservative range of *node* under variable ranges and macro values."""
    if isinstance(node, Num):
        return Interval.point(node.value)
    if isinstance(node, Name):
        if node.id in env:
            return env[node.id]
        if node.id in macros:
            return Interval.point(macros[node.id])
        return Interval.top()
    if isinstance(node, Unary):
        inner = eval_interval(node.operand, env, macros)
        return -inner if node.op == "-" else Interval.top()
    if isinstance(node, Call):
        args = [eval_interval(a, env, macros) for a in node.args]
        if node.func == "min" and len(args) == 2:
            return imin(*args)
        if node.func == "max" and len(args) == 2:
            return imax(*args)
        return Interval.top()
    if isinstance(node, Bin):
        lhs = eval_interval(node.lhs, env, macros)
        rhs = eval_interval(node.rhs, env, macros)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            return lhs.div(rhs)
        if node.op == "%":
            return lhs.mod(rhs)
        return Interval.top()
    return Interval.top()


# ----------------------------------------------------------------------
# guard refinement
# ----------------------------------------------------------------------
def conjuncts(node) -> "list":
    """Flatten a ``&&`` tree into its comparison conjuncts."""
    if isinstance(node, Bin) and node.op == "&&":
        return conjuncts(node.lhs) + conjuncts(node.rhs)
    return [node]


def refine_env(
    cond, env: "dict[str, Interval]", macros: "dict[str, float]"
) -> "dict[str, Interval]":
    """Intersect *env* with the constraints a guard condition implies.

    Only conjuncts of the shape ``name <op> expr`` (or mirrored) with an
    interval-evaluable bound refine; anything else is soundly ignored
    (the result only ever *widens* relative to the true reachable set).
    """
    out = dict(env)
    for c in conjuncts(cond):
        if not (isinstance(c, Bin) and c.op in ("<", ">", "<=", ">=", "==")):
            continue
        lhs, op, rhs = c.lhs, c.op, c.rhs
        if not isinstance(lhs, Name) and isinstance(rhs, Name):
            lhs, rhs = rhs, lhs
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "=="}[op]
        if not isinstance(lhs, Name):
            continue
        bound = eval_interval(rhs, out, macros)
        current = out.get(lhs.id, Interval.top())
        if op == ">=":
            refined = current.meet(Interval(bound.lo, INF))
        elif op == ">":
            refined = current.meet(Interval(bound.lo + 1, INF))
        elif op == "<=":
            refined = current.meet(Interval(-INF, bound.hi))
        elif op == "<":
            refined = current.meet(Interval(-INF, bound.hi - 1))
        else:  # ==
            refined = current.meet(bound)
        if refined is not None:
            out[lhs.id] = refined
    return out


def guard_bounds(cond, macros: "dict[str, float]") -> "dict[str, tuple[float | None, float | None]]":
    """Per-variable ``(lo, hi_exclusive)`` bounds a guard imposes.

    Unlike :func:`refine_env` this reports the *syntactic* bounds (used by
    the guard-contract check), evaluated against macros only, so loop
    ranges and other context do not leak in.  ``None`` marks a side the
    guard leaves open or non-constant.
    """
    out: dict[str, tuple[float | None, float | None]] = {}
    for c in conjuncts(cond):
        if not (isinstance(c, Bin) and c.op in ("<", ">", "<=", ">=")):
            continue
        lhs, op, rhs = c.lhs, c.op, c.rhs
        if not isinstance(lhs, Name) and isinstance(rhs, Name):
            lhs, rhs = rhs, lhs
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]
        if not isinstance(lhs, Name):
            continue
        bound = eval_const(rhs, macros)
        lo, hi = out.get(lhs.id, (None, None))
        if op == ">=":
            lo = bound
        elif op == ">":
            lo = None if bound is None else bound + 1
        elif op == "<":
            hi = bound
        elif op == "<=":
            hi = None if bound is None else bound + 1
        out[lhs.id] = (lo, hi)
    return out

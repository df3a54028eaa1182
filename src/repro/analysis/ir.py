"""Structural IR for generated CUDA kernels.

:func:`parse_unit` turns the text emitted by
:class:`repro.codegen.CudaKernelGenerator` (or any source in the same
C subset) into a small tree the analysis passes walk:

- preprocessor macros, resolved to numeric values in definition order;
- one :class:`Kernel` per ``__global__`` function: declarations (scalar,
  register-array and ``__shared__``), ``for`` loops, ``if`` guards,
  ``__syncthreads()`` barriers, ``#pragma`` annotations, assignments and
  bare intrinsic calls -- each carrying its 1-based source line;
- the host launcher's block/grid geometry and time-step loop.

The parser is line-structured (the generator emits one statement per
line with braces K&R-style), but statements are split on top-level
semicolons so fused lines like ``acc += partial; partial = 0.0;`` parse
as two statements.  Unknown constructs raise :class:`ParseError` with
the offending line rather than mis-filing silently: the IR is a
correctness tool, and a parser that guesses would launder real drift.

The IR is read-only for every consumer.  Expression ASTs are memoized
by text (:func:`repro.analysis.expr.parse_expr`) and kernel/host IR by
macro-free body, so units that differ only in ``#define`` values hold
the *same* :class:`Kernel` and :class:`Host` objects: a pass that
mutated one would corrupt every unit sharing it.  Errors are never
cached; a malformed source raises on every parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..errors import ReproError
from . import expr as E


class ParseError(ReproError):
    """The kernel source does not fit the generator's C subset."""


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass
class Stmt:
    line: int


@dataclass
class VarDecl(Stmt):
    """Scalar, register-array or ``__shared__`` declaration."""

    name: str
    ctype: str
    shared: bool = False
    const: bool = False
    pointer: bool = False
    dims: tuple = ()  # expression ASTs, outermost first
    init: object = None  # expression AST or None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Pragma(Stmt):
    text: str


@dataclass
class Barrier(Stmt):
    pass


@dataclass
class For(Stmt):
    var: str
    init: object  # expression AST or None
    cond: object  # expression AST or None
    step: str = ""
    body: list = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: object
    body: list = field(default_factory=list)


@dataclass
class Assign(Stmt):
    target: object  # Name or Index AST
    op: str  # "=" or "+="
    value: object


@dataclass
class CallStmt(Stmt):
    call: E.Call


# ----------------------------------------------------------------------
# containers
# ----------------------------------------------------------------------
@dataclass
class Kernel:
    name: str
    params: tuple[str, ...]
    body: list
    line: int

    def shared_arrays(self) -> dict[str, VarDecl]:
        return {
            s.name: s
            for s, _ in walk_stmts(self.body)
            if isinstance(s, VarDecl) and s.shared
        }

    def declarations(self) -> dict[str, VarDecl]:
        return {
            s.name: s for s, _ in walk_stmts(self.body) if isinstance(s, VarDecl)
        }

    def barriers(self) -> list[Barrier]:
        return [s for s, _ in walk_stmts(self.body) if isinstance(s, Barrier)]


@dataclass
class Host:
    block_dims: tuple  # expression ASTs (x, y, z)
    grid_dims: tuple
    launches: object  # step-loop bound AST or None
    launched_kernel: str | None
    line: int


@dataclass
class TranslationUnit:
    source: str
    macros: dict[str, float]
    macro_asts: dict[str, object]
    kernels: list[Kernel]
    host: Host | None
    meta: dict[str, str]

    @property
    def kernel(self) -> Kernel:
        if not self.kernels:
            raise ParseError("translation unit has no __global__ kernel")
        return self.kernels[0]


def walk_stmts(stmts, ancestors=()):
    """Yield ``(stmt, ancestors)`` pairs in source order, depth-first."""
    for s in stmts:
        yield s, ancestors
        if isinstance(s, (For, If)):
            yield from walk_stmts(s.body, ancestors + (s,))


# ----------------------------------------------------------------------
# lexical helpers
# ----------------------------------------------------------------------
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_LINE_COMMENT_RE = re.compile(r"//.*$")


def strip_comments(line: str) -> str:
    if "/" not in line:  # no comment can start: skip both regexes
        return line.strip()
    return _LINE_COMMENT_RE.sub("", _BLOCK_COMMENT_RE.sub("", line)).strip()


def split_top(text: str, sep: str) -> list[str]:
    """Split on *sep* at zero paren/bracket depth."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


_DEFINE_RE = re.compile(r"#define\s+(\w+)\s+(.+)$")
_KERNEL_RE = re.compile(r"__global__\s+void\s+(\w+)\s*\((.*)\)\s*(\{)?\s*$")
_HOST_RE = re.compile(r"int\s+run\s*\(")
_DECL_RE = re.compile(
    r"^(?:(?P<shared>__shared__)\s+)?(?:(?P<const>const)\s+)?"
    r"(?P<ctype>double|float|int|unsigned|long|dim3)(?P<ptr>\s*\*+)?\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?P<rest>.*)$"
)
_FOR_RE = re.compile(r"^for\s*\((?P<header>.*)\)\s*\{$")
_IF_RE = re.compile(r"^if\s*\((?P<cond>.*)\)\s*\{$")
_DIM3_RE = re.compile(r"^dim3\s+(\w+)\s*\((.*)\)\s*;?$")
_LAUNCH_RE = re.compile(r"^(\w+)\s*<<<\s*(\w+)\s*,\s*(\w+)\s*>>>\s*\((.*)\)\s*;?$")
_HIP_LAUNCH_RE = re.compile(
    r"^hipLaunchKernelGGL\s*\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*,"
    r"\s*0\s*,\s*0\s*,\s*(.*)\)\s*;?$"
)

CTYPE_SIZE = {"double": 8, "float": 4, "int": 4, "unsigned": 4, "long": 8}


def _parse_dims(rest: str):
    """Parse a leading ``[d0][d1]...`` chain; returns (dims, remainder)."""
    dims, i = [], 0
    while i < len(rest) and rest[i] == "[":
        depth, j = 0, i
        while j < len(rest):
            if rest[j] == "[":
                depth += 1
            elif rest[j] == "]":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if depth != 0:
            raise ParseError(f"unbalanced brackets in {rest!r}")
        dims.append(E.parse_expr(rest[i + 1:j]))
        i = j + 1
        while i < len(rest) and rest[i] == " ":
            i += 1
    return tuple(dims), rest[i:]


def _parse_decl(text: str, line: int) -> VarDecl:
    m = _DECL_RE.match(text)
    if m is None:
        raise ParseError(f"line {line}: cannot parse declaration {text!r}")
    rest = m.group("rest").strip().rstrip(";").strip()
    dims: tuple = ()
    init = None
    if rest.startswith("["):
        dims, rest = _parse_dims(rest)
        rest = rest.strip()
    if rest.startswith("="):
        init = E.parse_expr(rest[1:].strip())
    elif rest:
        raise ParseError(f"line {line}: trailing {rest!r} in declaration {text!r}")
    return VarDecl(
        line=line,
        name=m.group("name"),
        ctype=m.group("ctype"),
        shared=bool(m.group("shared")),
        const=bool(m.group("const")),
        pointer=bool(m.group("ptr")),
        dims=dims,
        init=init,
    )


def _parse_simple(text: str, line: int):
    """One brace-free statement: decl, assign, call or barrier."""
    body = text.rstrip(";").strip()
    if body == "__syncthreads()":
        return Barrier(line=line)
    if _DECL_RE.match(body) and not re.match(r"^\w+\s*[\[(=+]", body):
        return _parse_decl(body, line)
    for op in ("+=", "-=", "*="):
        parts = split_top(body, op[0])
        if len(parts) == 2 and parts[1].startswith("="):
            return Assign(
                line=line,
                target=E.parse_expr(parts[0].strip()),
                op=op,
                value=E.parse_expr(parts[1][1:].strip()),
            )
    eq = split_top(body, "=")
    if len(eq) == 2 and not body.startswith("=="):
        return Assign(
            line=line,
            target=E.parse_expr(eq[0].strip()),
            op="=",
            value=E.parse_expr(eq[1].strip()),
        )
    node = E.parse_expr(body)
    if isinstance(node, E.Call):
        return CallStmt(line=line, call=node)
    raise ParseError(f"line {line}: cannot classify statement {text!r}")


def _parse_for(header: str, line: int) -> For:
    parts = split_top(header, ";")
    if len(parts) != 3:
        raise ParseError(f"line {line}: malformed for-header {header!r}")
    init_text, cond_text, step_text = (p.strip() for p in parts)
    var, init = "", None
    if init_text:
        m = re.match(r"^(?:(?:const\s+)?(?:int|unsigned|long)\s+)?(\w+)\s*=\s*(.+)$", init_text)
        if m is None:
            raise ParseError(f"line {line}: malformed for-init {init_text!r}")
        var, init = m.group(1), E.parse_expr(m.group(2))
    cond = E.parse_expr(cond_text) if cond_text else None
    return For(line=line, var=var, init=init, cond=cond, step=step_text, body=[])


# ----------------------------------------------------------------------
# top-level parser
# ----------------------------------------------------------------------
def _parse_block(lines, i):
    """Parse statements until the matching ``}``; returns (stmts, next_i)."""
    stmts: list = []
    while i < len(lines):
        lineno, text = lines[i]
        if text == "}":
            return stmts, i + 1
        if text.startswith("#pragma"):
            stmts.append(Pragma(line=lineno, text=text))
            i += 1
            continue
        m = _FOR_RE.match(text)
        if m is not None:
            loop = _parse_for(m.group("header"), lineno)
            loop.body, i = _parse_block(lines, i + 1)
            stmts.append(loop)
            continue
        m = _IF_RE.match(text)
        if m is not None:
            node = If(line=lineno, cond=E.parse_expr(m.group("cond")), body=[])
            node.body, i = _parse_block(lines, i + 1)
            stmts.append(node)
            continue
        if text.endswith("{") or "<<<" in text:
            # Nested unknown block or a launch inside the kernel: out of
            # subset for kernel bodies.
            raise ParseError(f"line {lineno}: unsupported construct {text!r}")
        for piece in split_top(text, ";"):
            piece = piece.strip()
            if piece:
                stmts.append(_parse_simple(piece + ";", lineno))
        i += 1
    raise ParseError("unterminated block (missing '}')")


def _parse_host(lines, i) -> tuple[Host, int]:
    start = lines[i][0]
    block_dims: tuple = (E.Num(1), E.Num(1), E.Num(1))
    grid_dims: tuple = (E.Num(1), E.Num(1), E.Num(1))
    launches = None
    launched = None
    depth = 0
    while i < len(lines):
        lineno, text = lines[i]
        depth += text.count("{") - text.count("}")
        m = _DIM3_RE.match(text)
        if m is not None:
            dims = tuple(E.parse_expr(p.strip()) for p in split_top(m.group(2), ","))
            dims = dims + (E.Num(1),) * (3 - len(dims))
            if m.group(1) == "block":
                block_dims = dims
            elif m.group(1) == "grid":
                grid_dims = dims
        m = _FOR_RE.match(text)
        if m is not None:
            loop = _parse_for(m.group("header"), lineno)
            if loop.var == "step":
                launches = _upper_bound(loop.cond)
        m = _LAUNCH_RE.match(text) or _HIP_LAUNCH_RE.match(text)
        if m is not None:
            launched = m.group(1)
        i += 1
        if depth == 0 and "{" not in text and launched is not None and text == "}":
            break
    return Host(
        block_dims=block_dims,
        grid_dims=grid_dims,
        launches=launches,
        launched_kernel=launched,
        line=start,
    ), i


def _upper_bound(cond):
    """Bound expression of a ``var < bound`` loop condition."""
    if isinstance(cond, E.Bin) and cond.op == "<":
        return cond.rhs
    return None


_META_RE = re.compile(
    r"//\s*(stencil|optimization combination|grid|dialect):\s*(.+)$"
)


def _sweep_macros(raw: list[str], stripped: list[str]) -> tuple[dict, dict, dict]:
    """Macros (ASTs and resolved values) and header metadata, in order."""
    macro_asts: dict[str, object] = {}
    macros: dict[str, float] = {}
    meta: dict[str, str] = {}
    for line, text in zip(raw, stripped):
        mm = _META_RE.search(line)
        if mm is not None:
            meta[mm.group(1)] = mm.group(2).strip()
        m = _DEFINE_RE.match(text)
        if m is not None:
            try:
                ast = E.parse_expr(m.group(2).strip())
            except E.ExprError:
                continue  # non-arithmetic macro: irrelevant to analysis
            macro_asts[m.group(1)] = ast
            value = E.eval_const(ast, macros)
            if value is not None:
                macros[m.group(1)] = value
    return macros, macro_asts, meta


#: Distinct macro-free bodies kept parsed.  The settings of one
#: (stencil, OC) pair differ almost only in ``#define`` lines, so a
#: selector's static autotuning of one 2-D stencil touches about a dozen.
BODY_CACHE_SIZE = 1024


@lru_cache(maxsize=BODY_CACHE_SIZE)
def _parse_body(lines: tuple) -> tuple[tuple[Kernel, ...], Host | None]:
    """Kernels and host launcher of the filtered ``(lineno, text)`` lines.

    Memoized on the lines themselves: they exclude ``#define`` lines, so
    units whose bodies match share these objects whatever their macro
    values, and line numbers are part of the key, so every statement
    keeps its own source line.  A failing body raises afresh each call.
    """
    kernels: list[Kernel] = []
    host: Host | None = None
    i = 0
    while i < len(lines):
        lineno, text = lines[i]
        m = _KERNEL_RE.match(text)
        if m is not None:
            params = tuple(
                p.strip().split()[-1].lstrip("*")
                for p in split_top(m.group(2), ",")
                if p.strip()
            )
            i += 1
            if m.group(3) is None:
                if i >= len(lines) or lines[i][1] != "{":
                    raise ParseError(f"line {lineno}: kernel body must open with '{{'")
                i += 1
            body, i = _parse_block(lines, i)
            kernels.append(Kernel(name=m.group(1), params=params, body=body, line=lineno))
            continue
        if _HOST_RE.match(text):
            host, i = _parse_host(lines, i)
            continue
        i += 1
    return tuple(kernels), host


def parse_unit(source: str) -> TranslationUnit:
    """Parse a generated translation unit (or bare kernel) into IR.

    Two sweeps: macros and header metadata are read per unit, while the
    kernels and host launcher come from :func:`_parse_body`, so units
    that differ only in ``#define`` values share one body IR.  Every
    consumer treats the IR as read-only; sharing relies on it.
    """
    raw = source.splitlines()
    stripped = [strip_comments(line) for line in raw]
    macros, macro_asts, meta = _sweep_macros(raw, stripped)
    lines = tuple(
        (n, t)
        for n, t in enumerate(stripped, 1)
        if t and not t.startswith(("#include", "#define"))
    )
    kernels, host = _parse_body(lines)
    return TranslationUnit(
        source=source,
        macros=macros,
        macro_asts=macro_asts,
        kernels=list(kernels),
        host=host,
        meta=meta,
    )

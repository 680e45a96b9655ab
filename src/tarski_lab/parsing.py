"""Text forms: set literals, operator expressions, and spec files.

Set literals: ``{a,c}`` over a finite symbol table, ``{1,5}`` / ``co{1,5}``
over the naturals, ``{}`` for the empty set, ``L`` for the full universe.

Operator grammar, one expression per string::

    I | U | cxy {X} {Y} | cprime {X} {Y} | s {M} b
      | meet(e1,e2) | join(e1,e2) | wjoin(e1,e2) | comp(e1,e2)
      | system[{..};{..};...]

Bare identifiers refer to named bindings from a spec file.  A spec file is
line-oriented: a ``universe`` declaration first, then ``name = <expr>`` or
``name = <set literal>`` bindings; ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .sets import Mode, SentenceSet, Universe, make_universe
from .operators import (
    ClosureSystem,
    Compose,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    OperatorExpr,
    SExample,
    Top,
    WeakJoin,
)
from .algebra import weak_join


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*|[{}()\[\],;=]|\S")


@dataclass
class _Tokens:
    text: str
    line: int = 1
    pos: int = 0
    items: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for match in _TOKEN.finditer(self.text):
            self.items.append((match.group(), match.start() + 1))

    def peek(self) -> str | None:
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def column(self) -> int:
        if self.pos < len(self.items):
            return self.items[self.pos][1]
        return len(self.text) + 1

    def next(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise ParseError(
                f"unexpected end of input{f', expected {expected!r}' if expected else ''}",
                self.line,
                self.column(),
            )
        if expected is not None and token != expected:
            raise ParseError(f"expected {expected!r}, found {token!r}", self.line, self.column())
        self.pos += 1
        return token

    def error(self, message: str, ahead: bool = False) -> ParseError:
        """An error at the token consumed last, or with ``ahead`` at the next one."""
        column = self.column() if ahead else self.items[self.pos - 1][1]
        return ParseError(message, self.line, column)


@dataclass
class SpecContext:
    """A universe plus named operator and set bindings."""

    universe: Universe
    operators: dict[str, OperatorExpr] = field(default_factory=dict)
    sets: dict[str, SentenceSet] = field(default_factory=dict)

    def bind(self, name: str, value: OperatorExpr | SentenceSet, line: int = 1) -> None:
        if name in self.operators or name in self.sets:
            raise ParseError(f"name {name!r} is already bound", line)
        if isinstance(value, SentenceSet):
            self.sets[name] = value
        else:
            self.operators[name] = value


_BINARY = {"meet": Meet, "join": NaiveJoin, "wjoin": weak_join, "comp": Compose}

_KEYWORDS = {"I", "U", "cxy", "cprime", "s", "meet", "join", "wjoin", "comp", "system", "L", "co"}


def _parse_elements(tokens: _Tokens, ctx: SpecContext) -> list[int]:
    tokens.next("{")
    elements: list[int] = []
    if tokens.peek() == "}":
        tokens.next()
        return elements
    while True:
        item = tokens.next()
        if ctx.universe.mode is Mode.FINITE:
            try:
                elements.append(ctx.universe.index_of(item))
            except KeyError:
                raise tokens.error(f"unknown symbol {item!r}") from None
        else:
            if not (item.isascii() and item.isdigit()):
                raise tokens.error(f"expected a natural number, found {item!r}")
            elements.append(int(item))
        token = tokens.next()
        if token == "}":
            return elements
        if token != ",":
            raise tokens.error(f"expected ',' or '}}', found {token!r}")


def _parse_set(tokens: _Tokens, ctx: SpecContext) -> SentenceSet:
    token = tokens.peek()
    if token is None:
        raise tokens.error("expected a set literal", ahead=True)
    if token == "L":
        tokens.next()
        return ctx.universe.full()
    if token == "{":
        return ctx.universe.subset(_parse_elements(tokens, ctx))
    if token == "co":
        tokens.next()
        if ctx.universe.mode is not Mode.COFINITE:
            raise tokens.error("'co' literals exist only over the infinite universe")
        return ctx.universe.cosubset(_parse_elements(tokens, ctx))
    if token in ctx.sets:
        tokens.next()
        return ctx.sets[token]
    raise tokens.error(f"expected a set literal, found {token!r}", ahead=True)


def _parse_operator(tokens: _Tokens, ctx: SpecContext) -> OperatorExpr:
    token = tokens.next()
    if token == "I":
        return Identity(ctx.universe)
    if token == "U":
        return Top(ctx.universe)
    if token == "cxy":
        x = _parse_set(tokens, ctx)
        y = _parse_set(tokens, ctx)
        return Cxy(x, y)
    if token == "cprime":
        x = _parse_set(tokens, ctx)
        y = _parse_set(tokens, ctx)
        return CPrime(x, y)
    if token == "s":
        m = _parse_set(tokens, ctx)
        name = tokens.next()
        if ctx.universe.mode is not Mode.FINITE:
            raise tokens.error("the example operator needs a finite universe")
        try:
            b = ctx.universe.index_of(name)
        except KeyError:
            raise tokens.error(f"unknown symbol {name!r}") from None
        return SExample(m, b)
    if token in _BINARY:
        tokens.next("(")
        left = _parse_operator(tokens, ctx)
        tokens.next(",")
        right = _parse_operator(tokens, ctx)
        tokens.next(")")
        return _BINARY[token](left, right)
    if token == "system":
        tokens.next("[")
        closed = [_parse_set(tokens, ctx)]
        while tokens.peek() == ";":
            tokens.next()
            closed.append(_parse_set(tokens, ctx))
        tokens.next("]")
        return FromSystem(ClosureSystem(ctx.universe, tuple(s.mask for s in closed)))
    if token in ctx.operators:
        return ctx.operators[token]
    if token in ctx.sets:
        raise tokens.error(f"{token!r} names a set, not an operator")
    raise tokens.error(f"unknown operator form {token!r}")


def parse_set(text: str, ctx: SpecContext, line: int = 1) -> SentenceSet:
    tokens = _Tokens(text, line)
    result = _parse_set(tokens, ctx)
    if tokens.peek() is not None:
        raise tokens.error(f"trailing input {tokens.peek()!r}", ahead=True)
    return result


def parse_operator(text: str, ctx: SpecContext, line: int = 1) -> OperatorExpr:
    tokens = _Tokens(text, line)
    result = _parse_operator(tokens, ctx)
    if tokens.peek() is not None:
        raise tokens.error(f"trailing input {tokens.peek()!r}", ahead=True)
    return result


def parse_value(text: str, ctx: SpecContext, line: int = 1) -> OperatorExpr | SentenceSet:
    """Parse either a set literal or an operator expression."""
    stripped = text.strip()
    tokens = _Tokens(stripped, line)
    first = tokens.peek()
    second = tokens.items[1][0] if len(tokens.items) > 1 else None
    looks_like_set = (
        first == "{"
        or (first == "co" and second == "{")
        or (first == "L" and second is None)
        or first in ctx.sets
    )
    if looks_like_set:
        return parse_set(stripped, ctx, line)
    return parse_operator(stripped, ctx, line)


def render_operator(op: OperatorExpr) -> str:
    """Render an expression in the operator grammar (best effort for tables)."""
    if isinstance(op, Identity):
        return "I"
    if isinstance(op, Top):
        return "U"
    if isinstance(op, Cxy):
        return f"cxy {op.x.literal()} {op.y.literal()}"
    if isinstance(op, CPrime):
        return f"cprime {op.x.literal()} {op.y.literal()}"
    if isinstance(op, SExample):
        return f"s {op.m.literal()} {op.universe.name_of(op.b)}"
    if isinstance(op, Meet):
        return f"meet({render_operator(op.left)},{render_operator(op.right)})"
    if isinstance(op, NaiveJoin):
        return f"join({render_operator(op.left)},{render_operator(op.right)})"
    if isinstance(op, WeakJoin):
        return f"wjoin({render_operator(op.left)},{render_operator(op.right)})"
    if isinstance(op, Compose):
        return f"comp({render_operator(op.outer)},{render_operator(op.inner)})"
    if isinstance(op, FromSystem):
        inner = ";".join(s.literal() for s in op.system.closed)
        return f"system[{inner}]"
    if isinstance(op, FromTable):
        universe = op.universe
        entries = ";".join(
            f"{universe.from_mask(m).literal()}>{universe.from_mask(v).literal()}"
            for m, v in enumerate(op.table)
        )
        return f"table[{entries}]"
    raise TypeError(f"unknown operator expression {op!r}")


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*$")


def parse_spec(text: str) -> SpecContext:
    ctx: SpecContext | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ctx is None:
            parts = line.split()
            if parts[0] != "universe":
                raise ParseError("the first statement must declare the universe", lineno)
            if len(parts) >= 2 and parts[1] == "finite":
                if len(parts) < 3:
                    raise ParseError("finite universe needs symbols", lineno)
                ctx = SpecContext(make_universe(Mode.FINITE, parts[2:]))
            elif len(parts) == 2 and parts[1] == "cofinite":
                ctx = SpecContext(make_universe(Mode.COFINITE))
            else:
                raise ParseError("expected 'universe finite <symbols...>' or 'universe cofinite'", lineno)
            continue
        if "=" not in line:
            raise ParseError("expected 'name = expression'", lineno)
        name, rhs = (part.strip() for part in line.split("=", 1))
        if not _NAME.match(name) or name in _KEYWORDS:
            raise ParseError(f"invalid binding name {name!r}", lineno)
        value = parse_value(rhs, ctx, lineno)
        ctx.bind(name, value, lineno)
    if ctx is None:
        raise ParseError("empty spec: no universe declaration", 1)
    return ctx

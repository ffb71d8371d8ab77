"""ASTs, parsing and printing for the two object languages.

The constructive language has falsum, atoms, the binary connectives, the
base modalities and their reflexive-transitive ("master") variants.  The
classical target language is test-free PDL over the three program atoms
``i``, ``m`` and ``a``; its diamond is parse-time sugar, so PDL ASTs never
contain a diamond node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Union

P_BOT = "p_bot"
FALSUM_WORD = "false"
PROGRAM_ATOMS = ("i", "m", "a")
# Most operators on one branch of a parsed formula, and most nested
# parentheses.  The translations, printers, evaluators and dataclass hashes
# recurse once per level or more; every logic decides a formula this deep
# within Python's default recursion limit.
MAX_DEPTH = 100

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")


class ParseError(ValueError):
    """Syntax or reserved-identifier error, carrying a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class FragmentError(ValueError):
    """A formula fell outside the fragment an operation requires."""


# ---------------------------------------------------------------------------
# Constructive language


@dataclass(frozen=True)
class Formula:
    """Base class for constructive-language formulas."""


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
class Dia(Formula):
    body: Formula


@dataclass(frozen=True)
class BoxStar(Formula):
    body: Formula


@dataclass(frozen=True)
class DiaStar(Formula):
    body: Formula


def neg(f: Formula) -> Formula:
    """Constructive negation: f -> false."""
    return Imp(f, Bot())


# ---------------------------------------------------------------------------
# Programs and PDL


@dataclass(frozen=True)
class Program:
    """Base class for test-free PDL programs."""


@dataclass(frozen=True)
class PAtom(Program):
    name: str


@dataclass(frozen=True)
class Comp(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class Star(Program):
    body: Program


@dataclass(frozen=True)
class PdlFormula:
    """Base class for test-free PDL formulas."""


@dataclass(frozen=True)
class PdlAtom(PdlFormula):
    name: str


@dataclass(frozen=True)
class Neg(PdlFormula):
    body: PdlFormula


@dataclass(frozen=True)
class PdlAnd(PdlFormula):
    left: PdlFormula
    right: PdlFormula


@dataclass(frozen=True)
class PdlOr(PdlFormula):
    left: PdlFormula
    right: PdlFormula


@dataclass(frozen=True)
class BoxP(PdlFormula):
    prog: Program
    body: PdlFormula


def diamond(prog: Program, body: PdlFormula) -> PdlFormula:
    """<prog>body as its definitional expansion !([prog]!body)."""
    return Neg(BoxP(prog, Neg(body)))


AnyFormula = Union[Formula, PdlFormula]


class FragmentTag(Enum):
    LSTAR = "lstar"
    LSTAR_BOX = "lstar_box"
    L = "l"
    LK_STAR = "lk_star"


# ---------------------------------------------------------------------------
# Parsing


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.parens = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def ident(self) -> "tuple[str, int] | None":
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(), m.start()

    def open_paren(self) -> bool:
        """Take "(" and count it against MAX_DEPTH; close_paren undoes it."""
        if not self.take("("):
            return False
        self.parens += 1
        if self.parens > MAX_DEPTH:
            self.error(f"more than {MAX_DEPTH} nested parentheses")
        return True

    def close_paren(self) -> None:
        self.expect(")")
        self.parens -= 1

    def error(self, message: str) -> None:
        self.skip_ws()
        raise ParseError(message, self.byte_offset(self.pos))

    def byte_offset(self, pos: int) -> int:
        return len(self.text[:pos].encode("utf-8"))


def _check_depth(f, text: str):
    """f, unless it nests more than MAX_DEPTH operators; walked level by
    level, without recursion.  Each level of a branch takes at least one
    character of the text, so a text this short needs no walk."""
    if len(text) <= MAX_DEPTH:
        return f
    level = [f]
    for _ in range(MAX_DEPTH + 1):
        level = [k for g in level for k in _node_children(g)]
        if not level:
            return f
    raise ParseError(f"formula nests more than {MAX_DEPTH} operators", 0)


def is_atom_name(name: str) -> bool:
    """True iff the parsers read `name` as an atom: it is an identifier
    and not the falsum word."""
    return _IDENT_RE.fullmatch(name) is not None and name != FALSUM_WORD


def parse_formula(text: str, *, allow_p_bot: bool = False) -> Formula:
    """Parse a constructive-language formula.

    ``~x`` is sugar for ``x -> false``.  The reserved atom ``p_bot`` is
    rejected unless ``allow_p_bot`` is set (it belongs to the infallible
    language only).
    """
    cur = _Cursor(text)
    f = _imp(cur, allow_p_bot)
    if not cur.eof():
        cur.error("unexpected trailing input")
    return _check_depth(f, text)


def _imp(cur: _Cursor, allow: bool) -> Formula:
    parts = [_or(cur, allow)]
    while cur.take("->"):
        parts.append(_or(cur, allow))
    f = parts.pop()
    while parts:  # right associative
        f = Imp(parts.pop(), f)
    return f


def _or(cur: _Cursor, allow: bool) -> Formula:
    f = _and(cur, allow)
    while cur.take("|"):
        f = Or(f, _and(cur, allow))
    return f


def _and(cur: _Cursor, allow: bool) -> Formula:
    f = _unary(cur, allow)
    while cur.take("&"):
        f = And(f, _unary(cur, allow))
    return f


_PREFIXES = (("[*]", BoxStar), ("[]", Box), ("<*>", DiaStar), ("<>", Dia),
             ("~", neg))


def _unary(cur: _Cursor, allow: bool) -> Formula:
    # Prefix operators are collected in a loop, so only parentheses recurse.
    ops = []
    while True:
        for literal, make in _PREFIXES:
            if cur.take(literal):
                ops.append(make)
                break
        else:
            break
    if cur.open_paren():
        f = _imp(cur, allow)
        cur.close_paren()
    else:
        f = _atom(cur, allow)
    for op in reversed(ops):
        f = op(f)
    return f


def _atom(cur: _Cursor, allow: bool) -> Formula:
    got = cur.ident()
    if got is None:
        cur.error("expected a formula")
    name, start = got
    if name == FALSUM_WORD:
        return Bot()
    if name == P_BOT and not allow:
        raise ParseError(f"atom {P_BOT!r} is reserved in this language",
                         cur.byte_offset(start))
    return Atom(name)


def parse_pdl(text: str) -> PdlFormula:
    """Parse a test-free PDL formula; diamonds are expanded eagerly."""
    cur = _Cursor(text)
    f = _pimp(cur)
    if not cur.eof():
        cur.error("unexpected trailing input")
    return _check_depth(f, text)


def _pimp(cur: _Cursor) -> PdlFormula:
    parts = [_por(cur)]
    while cur.take("->"):
        parts.append(_por(cur))
    f = parts.pop()
    while parts:
        # Classical sugar: the language itself has no implication node.
        f = PdlOr(Neg(parts.pop()), f)
    return f


def _por(cur: _Cursor) -> PdlFormula:
    f = _pand(cur)
    while cur.take("|"):
        f = PdlOr(f, _pand(cur))
    return f


def _pand(cur: _Cursor) -> PdlFormula:
    f = _punary(cur)
    while cur.take("&"):
        f = PdlAnd(f, _punary(cur))
    return f


def _punary(cur: _Cursor) -> PdlFormula:
    ops = []
    while True:
        if cur.take("["):
            prog = _prog(cur)
            cur.expect("]")
            ops.append(partial(BoxP, prog))
        elif cur.take("<"):
            prog = _prog(cur)
            cur.expect(">")
            ops.append(partial(diamond, prog))
        elif cur.take("!"):
            ops.append(Neg)
        else:
            break
    if cur.open_paren():
        f = _pimp(cur)
        cur.close_paren()
    else:
        f = _patom(cur)
    for op in reversed(ops):
        f = op(f)
    return f


def _patom(cur: _Cursor) -> PdlFormula:
    got = cur.ident()
    if got is None:
        cur.error("expected a formula")
    name, start = got
    if name == FALSUM_WORD:
        raise ParseError(f"{FALSUM_WORD!r} is reserved and not a PDL atom",
                         cur.byte_offset(start))
    return PdlAtom(name)


def _prog(cur: _Cursor) -> Program:
    p = _pstar(cur)
    while cur.take(";"):
        p = Comp(p, _pstar(cur))
    return p


def _pstar(cur: _Cursor) -> Program:
    if cur.open_paren():
        p = _prog(cur)
        cur.close_paren()
    else:
        got = cur.ident()
        if got is None:
            cur.error("expected a program")
        name, start = got
        if name not in PROGRAM_ATOMS:
            raise ParseError(f"unknown program atom {name!r}",
                             cur.byte_offset(start))
        p = PAtom(name)
    while cur.take("*"):
        p = Star(p)
    return p


# ---------------------------------------------------------------------------
# Printing

# Binding strength: implication < or < and < unary; leaves never need parens.
_IMP, _OR, _AND, _UNARY, _LEAF = 1, 2, 3, 4, 5


def render(f: AnyFormula) -> str:
    """Minimal-parentheses concrete syntax; parse(render(x)) == x."""
    if isinstance(f, Formula):
        return _render_f(f, _IMP)
    if isinstance(f, PdlFormula):
        return _render_p(f, _IMP)
    raise TypeError(f"cannot render {type(f).__name__}")


def render_program(p: Program) -> str:
    return _render_prog(p, 1)


def _wrap(s: str, level: int, minimum: int) -> str:
    return f"({s})" if level < minimum else s


def _render_f(f: Formula, minimum: int) -> str:
    if isinstance(f, Bot):
        return FALSUM_WORD
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Imp):
        s = f"{_render_f(f.left, _OR)} -> {_render_f(f.right, _IMP)}"
        return _wrap(s, _IMP, minimum)
    if isinstance(f, Or):
        s = f"{_render_f(f.left, _OR)} | {_render_f(f.right, _AND)}"
        return _wrap(s, _OR, minimum)
    if isinstance(f, And):
        s = f"{_render_f(f.left, _AND)} & {_render_f(f.right, _UNARY)}"
        return _wrap(s, _AND, minimum)
    if isinstance(f, Box):
        return f"[]{_render_f(f.body, _UNARY)}"
    if isinstance(f, Dia):
        return f"<>{_render_f(f.body, _UNARY)}"
    if isinstance(f, BoxStar):
        return f"[*]{_render_f(f.body, _UNARY)}"
    if isinstance(f, DiaStar):
        return f"<*>{_render_f(f.body, _UNARY)}"
    raise TypeError(f"unknown formula node {type(f).__name__}")


def _render_p(f: PdlFormula, minimum: int) -> str:
    if isinstance(f, PdlAtom):
        return f.name
    if isinstance(f, Neg):
        return f"!{_render_p(f.body, _UNARY)}"
    if isinstance(f, PdlOr):
        s = f"{_render_p(f.left, _OR)} | {_render_p(f.right, _AND)}"
        return _wrap(s, _OR, minimum)
    if isinstance(f, PdlAnd):
        s = f"{_render_p(f.left, _AND)} & {_render_p(f.right, _UNARY)}"
        return _wrap(s, _AND, minimum)
    if isinstance(f, BoxP):
        return f"[{_render_prog(f.prog, 1)}]{_render_p(f.body, _UNARY)}"
    raise TypeError(f"unknown PDL node {type(f).__name__}")


def _render_prog(p: Program, minimum: int) -> str:
    # Composition binds loosest (level 1); star is a postfix on level-2 items.
    if isinstance(p, PAtom):
        return p.name
    if isinstance(p, Comp):
        s = f"{_render_prog(p.left, 1)};{_render_prog(p.right, 2)}"
        return _wrap(s, 1, minimum)
    if isinstance(p, Star):
        return f"{_render_prog(p.body, 2)}*"
    raise TypeError(f"unknown program node {type(p).__name__}")


# ---------------------------------------------------------------------------
# Structural metadata


def _children(f: AnyFormula) -> tuple:
    if isinstance(f, (Bot, Atom, PdlAtom)):
        return ()
    if isinstance(f, (And, Or, Imp, PdlAnd, PdlOr)):
        return (f.left, f.right)
    if isinstance(f, (Box, Dia, BoxStar, DiaStar, Neg)):
        return (f.body,)
    if isinstance(f, BoxP):
        return (f.body,)
    raise TypeError(f"unknown node {type(f).__name__}")


def _node_children(node) -> tuple:
    """Children of a formula or program node, programs included."""
    if isinstance(node, BoxP):
        return (node.prog, node.body)
    if isinstance(node, Comp):
        return (node.left, node.right)
    if isinstance(node, Star):
        return (node.body,)
    if isinstance(node, PAtom):
        return ()
    return _children(node)


def subformulas(f: AnyFormula) -> list:
    """All subformulas of f, deduplicated, in post-order of first occurrence.

    Includes f itself; for PDL formulas programs contribute no members.
    """
    seen: dict = {}

    def walk(g) -> None:
        if g in seen:
            return
        for child in _children(g):
            walk(child)
        seen[g] = None

    walk(f)
    return list(seen)


def variables(f: AnyFormula) -> list[str]:
    """Atom names occurring in f, lexicographically sorted."""
    names = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, PdlAtom)):
            names.add(g.name)
        else:
            stack.extend(_children(g))
    return sorted(names)


def program_size(p: Program) -> int:
    if isinstance(p, PAtom):
        return 1
    if isinstance(p, Comp):
        return 1 + program_size(p.left) + program_size(p.right)
    if isinstance(p, Star):
        return 1 + program_size(p.body)
    raise TypeError(f"unknown program node {type(p).__name__}")


def formula_size(f: AnyFormula) -> int:
    """Total AST node count; a program-boxed modality counts 1 plus its
    program's nodes."""
    if isinstance(f, (Bot, Atom, PdlAtom)):
        return 1
    if isinstance(f, BoxP):
        return 1 + program_size(f.prog) + formula_size(f.body)
    return 1 + sum(formula_size(c) for c in _children(f))


def _is_kstar_program(p: Program) -> bool:
    return p == PAtom("a") or p == Star(PAtom("a"))


def check_fragment(f: AnyFormula, tag: FragmentTag) -> bool:
    """True iff every node of f is permitted by the tag's definition."""
    if tag is FragmentTag.LK_STAR:
        if not isinstance(f, PdlFormula):
            return False
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, BoxP) and not _is_kstar_program(g.prog):
                return False
            stack.extend(_children(g))
        return True
    if not isinstance(f, Formula):
        return False
    if tag is FragmentTag.LSTAR:
        banned: tuple = ()
    elif tag is FragmentTag.LSTAR_BOX:
        banned = (Dia, DiaStar)
    elif tag is FragmentTag.L:
        banned = (BoxStar, DiaStar)
    else:
        raise ValueError(f"unknown fragment tag {tag!r}")
    stack = [f]
    while stack:
        g = stack.pop()
        if banned and isinstance(g, banned):
            return False
        stack.extend(_children(g))
    return True

"""ASTs, parsing and printing for the two object languages.

The constructive language has falsum, atoms, the binary connectives, the
base modalities and their reflexive-transitive ("master") variants.  The
classical target language is test-free PDL over the three program atoms
``i``, ``m`` and ``a``; its diamond is parse-time sugar, so PDL ASTs never
contain a diamond node.

The two languages share their atoms and the Boolean connectives: `Atom`,
`And` and `Or` are formulas of both, so a formula built from them alone is
in both languages, and `Bot`, `Imp` and the modalities, or `Neg` and
`BoxP`, tell them apart.  They share the grammar of `->` (right
associative), `|`, `&`, prefix operators and parentheses, so one parser
reads both: a language gives it only its implication, its prefix reader
and its atom reader.  One printer writes both from a table of infix
symbols with their binding levels and a table of prefix texts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple, Union

P_BOT = "p_bot"
FALSUM_WORD = "false"
PROGRAM_ATOMS = ("i", "m", "a")
# Most operators on one branch of a parsed formula, and most nested
# parentheses.  `images` (under every formula map and evaluator), the
# printers and node equality recurse once per level; every logic decides a
# formula this deep within Python's default recursion limit.  Node hashes do
# not recurse: each is computed once, by the `__init__` that builds its node,
# from its children's stored hashes (see `_node`).
MAX_DEPTH = 100
# Most node occurrences in a checked formula, programs included: a walk
# over a hand-built tree that shares subtrees counts paths, not nodes.
MAX_NODES = 1_000_000

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
# `\s` is `str.isspace` on str patterns.
_WS_RE = re.compile(r"\s*")


class ParseError(ValueError):
    """Syntax or reserved-identifier error, carrying a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class FragmentError(ValueError):
    """A formula fell outside the fragment an operation requires."""


# ---------------------------------------------------------------------------
# Syntax nodes


class Children(NamedTuple):
    """Getters of the tuple of a node's children in formula positions, in
    program positions and in both, and the number of formula positions."""

    formulas: Callable
    programs: Callable
    nodes: Callable
    arity: int


# Node class -> its `Children`, recorded by `_node` from the field
# annotations: a `str` field is a leaf's name, a `Program` field a program
# position and any other field a formula position.
CHILDREN: dict[type, Children] = {}


def _getter(names: tuple) -> Callable:
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda g: (get(g),)
    return lambda g: ()


def _init(cls) -> Callable:
    """`cls`'s `__init__`, generated from its fields as `dataclasses`
    generates its own: one call that sets each field and then `_hash`, the
    hash of the tuple of the fields.  It sets them with `object.__setattr__`
    bound once and never reads `self.__dict__`, since reading it makes
    CPython (3.11 on) build a dict object for the instance: a node without
    one is about a third smaller, and its fields read faster."""
    names = "".join(f"{f.name}, " for f in fields(cls))  # a 1-tuple too
    lines = "".join(f"    _set(self, {f.name!r}, {f.name})\n" for f in fields(cls))
    namespace: dict = {}
    exec(f"def __init__(self, {names}):\n{lines}"
         f"    _set(self, '_hash', hash(({names})))\n",
         {"_set": object.__setattr__}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _node(cls):
    """A frozen dataclass whose hash is computed once, at construction, by
    its generated `__init__` (see `_init`): the hash of the tuple of its
    fields, whose own hashes are stored already, so hashing never walks
    down the tree.  The hash is kept outside the fields, so `==`, `repr`
    and `dataclasses.replace` are unchanged and assigning a field still
    raises `FrozenInstanceError`; a copy or an unpickled node is rebuilt
    through `__init__`, so its hash is recomputed."""
    cls = dataclass(frozen=True, init=False)(cls)
    cls.__init__ = _init(cls)
    cls.__hash__ = lambda self: self._hash
    cls.__reduce__ = lambda self: (
        type(self), tuple(getattr(self, f.name) for f in fields(self)))
    kids = [(f.name, f.type == "Program") for f in fields(cls) if f.type != "str"]
    formulas = tuple(name for name, program in kids if not program)
    CHILDREN[cls] = Children(
        _getter(formulas), _getter(tuple(name for name, program in kids if program)),
        _getter(tuple(name for name, _ in kids)), len(formulas))
    return cls


# ---------------------------------------------------------------------------
# Formulas of both languages


@_node
class Formula:
    """Base class for constructive-language formulas."""


@_node
class PdlFormula:
    """Base class for test-free PDL formulas."""


@_node
class Atom(Formula, PdlFormula):
    name: str


@_node
class And(Formula, PdlFormula):
    left: AnyFormula
    right: AnyFormula


@_node
class Or(Formula, PdlFormula):
    left: AnyFormula
    right: AnyFormula


AnyFormula = Union[Formula, PdlFormula]


# ---------------------------------------------------------------------------
# Constructive language


@_node
class Bot(Formula):
    pass


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Box(Formula):
    body: Formula


@_node
class Dia(Formula):
    body: Formula


@_node
class BoxStar(Formula):
    body: Formula


@_node
class DiaStar(Formula):
    body: Formula


def neg(f: Formula) -> Formula:
    """Constructive negation: f -> false."""
    return Imp(f, Bot())


# ---------------------------------------------------------------------------
# Programs and PDL


@_node
class Program:
    """Base class for test-free PDL programs."""


@_node
class PAtom(Program):
    name: str


@_node
class Comp(Program):
    left: Program
    right: Program


@_node
class Star(Program):
    body: Program


@_node
class Neg(PdlFormula):
    body: PdlFormula


@_node
class BoxP(PdlFormula):
    prog: Program
    body: PdlFormula


def diamond(prog: Program, body: PdlFormula) -> PdlFormula:
    """<prog>body as its definitional expansion !([prog]!body)."""
    return Neg(BoxP(prog, Neg(body)))


class FragmentTag(Enum):
    LSTAR = "lstar"
    LSTAR_BOX = "lstar_box"
    L = "l"
    LK_STAR = "lk_star"


def _plain(*classes) -> tuple:
    return tuple((cls, None) for cls in classes)


# Each fragment's grammar: (its leaf node classes, its operators as (node
# class, box program or None) pairs).  `check_fragment` and the oracle's
# formula generator and enumerator read it; the operators are listed in
# the order the generator draws them.
FRAGMENTS = {
    FragmentTag.LSTAR: ((Bot, Atom),
                        _plain(Box, Dia, BoxStar, DiaStar, And, Or, Imp)),
    FragmentTag.LSTAR_BOX: ((Bot, Atom), _plain(Box, BoxStar, And, Or, Imp)),
    FragmentTag.L: ((Bot, Atom), _plain(Box, Dia, And, Or, Imp)),
    FragmentTag.LK_STAR: ((Atom,), _plain(Neg, And, Or) + (
        (BoxP, PAtom("a")), (BoxP, Star(PAtom("a"))))),
}


# ---------------------------------------------------------------------------
# Parsing


class _Cursor:
    """A position in the text that is always past whitespace: the cursor
    starts past the leading whitespace and every step that takes text also
    takes the whitespace after it, so no whitespace is scanned twice and
    `take`, `ident` and `eof` look only at the next token."""

    def __init__(self, text: str):
        self.text = text
        self.pos = _WS_RE.match(text).end()
        self.parens = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos = _WS_RE.match(self.text, self.pos + len(literal)).end()
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def ident(self) -> "tuple[str, int] | None":
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = _WS_RE.match(self.text, m.end()).end()
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
        raise ParseError(message, self.byte_offset(self.pos))

    def byte_offset(self, pos: int) -> int:
        return len(self.text[:pos].encode("utf-8"))


def is_atom_name(name: str) -> bool:
    """True iff the parsers read `name` as an atom: it is an identifier
    and not the falsum word."""
    return _IDENT_RE.fullmatch(name) is not None and name != FALSUM_WORD


class _Grammar(NamedTuple):
    """What a language gives the shared parser: its node constructor for
    `->`, a reader taking one prefix operator to its constructor (or None),
    and a reader turning an identifier at an offset into a leaf."""

    imp: Callable
    prefix: Callable
    atom: Callable


def _parse(text: str, grammar: _Grammar):
    cur = _Cursor(text)
    f = _imp(cur, grammar)
    if not cur.eof():
        cur.error("unexpected trailing input")
    # Each level of a branch takes at least one character of the text, so a
    # text this short needs no walk.
    if len(text) > MAX_DEPTH and (error := depth_error(f)) is not None:
        raise ParseError(error, 0)
    return f


def parse_formula(text: str) -> Formula:
    """Parse a constructive-language formula.

    ``~x`` is sugar for ``x -> false``.  The reserved atom ``p_bot`` is read
    as an atom; which logics admit it is `solver.check_input`'s to decide.
    """
    return _parse(text, _Grammar(Imp, _prefix, _atom))


def parse_pdl(text: str) -> PdlFormula:
    """Parse a test-free PDL formula; ``a -> b`` is read as ``!a | b`` and
    diamonds are expanded eagerly."""
    return _parse(text, _Grammar(lambda a, b: Or(Neg(a), b), _pdl_prefix, _pdl_atom))


def _imp(cur: _Cursor, g: _Grammar):
    parts = [_or(cur, g)]
    while cur.take("->"):
        parts.append(_or(cur, g))
    f = parts.pop()
    while parts:  # right associative
        f = g.imp(parts.pop(), f)
    return f


def _or(cur: _Cursor, g: _Grammar):
    f = _and(cur, g)
    while cur.take("|"):
        f = Or(f, _and(cur, g))
    return f


def _and(cur: _Cursor, g: _Grammar):
    f = _unary(cur, g)
    while cur.take("&"):
        f = And(f, _unary(cur, g))
    return f


def _unary(cur: _Cursor, g: _Grammar):
    # Prefix operators are collected in a loop, so only parentheses recurse.
    ops = []
    while (op := g.prefix(cur)) is not None:
        ops.append(op)
    if cur.open_paren():
        f = _imp(cur, g)
        cur.close_paren()
    else:
        got = cur.ident()
        if got is None:
            cur.error("expected a formula")
        f = g.atom(cur, *got)
    for op in reversed(ops):
        f = op(f)
    return f


# The prefix operators by their first character, each list in the order
# they are tried.
_PREFIXES = {"[": (("[*]", BoxStar), ("[]", Box)),
             "<": (("<*>", DiaStar), ("<>", Dia)), "~": (("~", neg),)}


def _prefix(cur: _Cursor) -> "Callable | None":
    for literal, make in _PREFIXES.get(cur.text[cur.pos:cur.pos + 1], ()):
        if cur.take(literal):
            return make
    return None


def _atom(cur: _Cursor, name: str, start: int) -> Formula:
    return Bot() if name == FALSUM_WORD else Atom(name)


def _pdl_prefix(cur: _Cursor) -> "Callable | None":
    if cur.take("["):
        prog = _prog(cur)
        cur.expect("]")
        return partial(BoxP, prog)
    if cur.take("<"):
        prog = _prog(cur)
        cur.expect(">")
        return partial(diamond, prog)
    if cur.take("!"):
        return Neg
    return None


def _pdl_atom(cur: _Cursor, name: str, start: int) -> Atom:
    if name == FALSUM_WORD:
        raise ParseError(f"{FALSUM_WORD!r} is reserved and not a PDL atom",
                         cur.byte_offset(start))
    return Atom(name)


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
_IMP, _OR, _AND, _UNARY = 1, 2, 3, 4
# Infix node class -> (symbol, its level, left operand's, right operand's):
# implication groups to the right, the others to the left.
_INFIX = {Imp: (" -> ", _IMP, _OR, _IMP), Or: (" | ", _OR, _OR, _AND),
          And: (" & ", _AND, _AND, _UNARY)}
_PREFIX_TEXT = {Box: "[]", Dia: "<>", BoxStar: "[*]", DiaStar: "<*>", Neg: "!"}


def render(f: AnyFormula) -> str:
    """Minimal-parentheses concrete syntax; parse(render(x)) == x."""
    if not isinstance(f, (Formula, PdlFormula)):
        raise TypeError(f"cannot render {type(f).__name__}")
    return _render(f, _IMP)


def _wrap(s: str, level: int, minimum: int) -> str:
    return f"({s})" if level < minimum else s


def _render(f: AnyFormula, minimum: int) -> str:
    infix = _INFIX.get(type(f))
    if infix is not None:
        symbol, level, left, right = infix
        s = f"{_render(f.left, left)}{symbol}{_render(f.right, right)}"
        return _wrap(s, level, minimum)
    prefix = _PREFIX_TEXT.get(type(f))
    if isinstance(f, BoxP):
        prefix = f"[{_render_prog(f.prog, 1)}]"
    if prefix is not None:
        return prefix + _render(f.body, _UNARY)
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bot):
        return FALSUM_WORD
    raise TypeError(f"unknown formula node {type(f).__name__}")


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


def depth_error(f) -> "str | None":
    """The error if f nests more than MAX_DEPTH operators on one branch or
    has more than MAX_NODES node occurrences, programs included, else None;
    walked level by level, not recursively.  An object of a class that is
    no syntax node counts as a leaf."""
    level, count = [f], 1
    for _ in range(MAX_DEPTH + 1):
        level = [k for g in level if type(g) in CHILDREN
                 for k in CHILDREN[type(g)].nodes(g)]
        count += len(level)
        if count > MAX_NODES:
            return f"formula has more than {MAX_NODES} nodes"
        if not level:
            return None
    return f"formula nests more than {MAX_DEPTH} operators"


def images(f, rules: dict, context=None) -> dict:
    """Each distinct subformula g of f, in post-order of first occurrence, to
    `rules[type(g)](g, image, context)`: a rule reads its children's images
    from `image`, this dict.  Recurses once per level; programs are not
    walked.  TypeError for a class with no rule, before its children."""
    image: dict = {}

    def walk(g) -> None:
        rule = rules.get(type(g))
        if rule is None:
            raise TypeError(f"no rule for {type(g).__name__}")
        for child in CHILDREN[type(g)].formulas(g):
            if child not in image:
                walk(child)
        image[g] = rule(g, image, context)

    walk(f)
    return image


# A rule for every node class, so `images` with it only lists the nodes.
_LIST_ONLY = dict.fromkeys(CHILDREN, lambda g, image, context: None)


def subformulas(f: AnyFormula) -> list:
    """All subformulas of f, deduplicated, in post-order of first occurrence.

    Includes f itself; for PDL formulas programs contribute no members.
    """
    return list(images(f, _LIST_ONLY))


def variables(f: AnyFormula) -> list[str]:
    """Atom names occurring in f, lexicographically sorted."""
    names, seen = set(), set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            names.add(g.name)
        elif g not in seen:  # each distinct node once
            seen.add(g)
            stack.extend(CHILDREN[type(g)].formulas(g))
    return sorted(names)


def _program_atom_census(f: PdlFormula) -> tuple[set[str], set[str]]:
    """The program atoms of f's boxes that occur bare, and those that occur
    as the body of a star: one walk over f's distinct nodes."""
    bare, starred = set(), set()
    seen = {f}
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is PAtom:
            bare.add(g.name)
        elif type(g) is Star and type(g.body) is PAtom:
            starred.add(g.body.name)
        else:
            for h in CHILDREN[type(g)].nodes(g):
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
    return bare, starred


def program_atoms(f: PdlFormula) -> list[str]:
    """Program atom names occurring in f's boxes, lexicographically sorted."""
    bare, starred = _program_atom_census(f)
    return sorted(bare | starred)


def starred_only_atoms(f: PdlFormula) -> set[str]:
    """Program atom names that occur in f only as the body of a star."""
    bare, starred = _program_atom_census(f)
    return starred - bare


def formula_size(f) -> int:
    """Total AST node count, programs included: a program-boxed modality
    counts 1 plus its program's nodes."""
    size = 0
    stack = [f]
    while stack:
        g = stack.pop()
        size += 1
        stack.extend(CHILDREN[type(g)].nodes(g))
    return size


# Per fragment: the node classes it admits, and the programs its boxes may
# carry.  None is all of test-free PDL, whose boxes carry any program.
_ADMITTED = {
    tag: (frozenset(leaves) | {cls for cls, _ in operators},
          frozenset(prog for _, prog in operators if prog is not None))
    for tag, (leaves, operators) in FRAGMENTS.items()}
_ADMITTED[None] = (frozenset((Atom, Neg, And, Or, BoxP)), None)


def check_fragment(f: AnyFormula, tag: "FragmentTag | None") -> bool:
    """True iff every node of f is admitted at its position by the tag's
    row of `FRAGMENTS` (None: by test-free PDL) and every leaf name is a
    string; KeyError for an unknown tag.  A node's class is checked before
    its children are read."""
    classes, programs = _ADMITTED[tag]
    stack, boxed = [f], []
    while stack:
        g = stack.pop()
        if type(g) not in classes:
            return False
        kids = CHILDREN[type(g)]
        if kids.arity:
            stack.extend(kids.formulas(g))
            boxed.extend(kids.programs(g))
        elif not isinstance(getattr(g, "name", ""), str):
            return False
    if programs is not None:
        return programs.issuperset(boxed)
    while boxed:
        p = boxed.pop()
        if type(p) not in (PAtom, Comp, Star) or (
                type(p) is PAtom and not isinstance(p.name, str)):
            return False
        boxed.extend(CHILDREN[type(p)].programs(p))
    return True

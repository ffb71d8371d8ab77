import copy
import dataclasses
import pickle
import random
import re
import time

import pytest

from ckstar.relmodel import Relation
from ckstar.semantics import extension, pdl_extension
from ckstar.syntax import (
    CHILDREN,
    MAX_DEPTH,
    Atom,
    And,
    Bot,
    Box,
    BoxP,
    BoxStar,
    Comp,
    Dia,
    DiaStar,
    FragmentTag,
    Imp,
    images,
    Neg,
    Or,
    PAtom,
    ParseError,
    Star,
    check_fragment,
    diamond,
    formula_size,
    parse_formula,
    parse_pdl,
    render,
    subformulas,
    variables,
)
from ckstar.translate import _KSTAR, tau

from helpers import (
    bi_model,
    iter_nodes,
    pdl_model,
    random_lkstar,
    random_lstar,
    random_pdl,
)

p, q = Atom("p"), Atom("q")


def test_parse_k_axiom():
    got = parse_formula("[](p->q) -> ([]p -> []q)")
    assert got == Imp(Box(Imp(p, q)), Imp(Box(p), Box(q)))


def test_parse_atom():
    assert parse_formula("p") == p


def test_parse_negated_diamond_falsum():
    assert parse_formula("~<>false") == Imp(Dia(Bot()), Bot())


def test_parse_precedence_and_associativity():
    assert parse_formula("p & q | p") == Or(And(p, q), p)
    assert parse_formula("p -> q -> p") == Imp(p, Imp(q, p))
    assert parse_formula("p | q & p") == Or(p, And(q, p))
    assert parse_formula("[*]p & <*>q") == And(BoxStar(p), DiaStar(q))


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> ")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        parse_formula("p q")
    assert err.value.offset == 2


def test_parse_pdl_diamond_is_sugar():
    assert parse_pdl("<a>p") == Neg(BoxP(PAtom("a"), Neg(Atom("p"))))
    assert parse_pdl("[i*;m]p") == BoxP(Comp(Star(PAtom("i")), PAtom("m")), Atom("p"))


def test_parse_pdl_rejects_falsum_and_unknown_programs():
    with pytest.raises(ParseError):
        parse_pdl("!false")
    with pytest.raises(ParseError) as err:
        parse_pdl("[x]p")
    assert err.value.offset == 1


def test_parse_pdl_implication_sugar():
    assert parse_pdl("p -> q") == Or(Neg(Atom("p")), Atom("q"))


def test_render_goldens():
    assert render(Imp(p, Bot())) == "p -> false"
    assert render(Box(BoxStar(p))) == "[][*]p"
    assert render(BoxP(Comp(Star(PAtom("i")), PAtom("m")), Atom("p"))) == "[i*;m]p"
    assert render(And(p, And(q, p))) == "p & (q & p)"
    assert render(BoxP(Star(Star(PAtom("i"))), p)) == "[i**]p"
    assert render(BoxP(Star(Comp(PAtom("i"), PAtom("m"))), p)) == "[(i;m)*]p"


def test_both_languages_read_atoms_and_boolean_connectives_alike():
    for text in ("p", "p & q", "p | q & r", "(p | q) & r", "p & (q & p)",
                 "p | (q | r)"):
        f = parse_pdl(text)
        assert f == parse_formula(text)
        assert render(f) == text
        assert parse_pdl(render(f)) == f


def test_render_round_trip_random():
    rng = random.Random(7)
    for _ in range(400):
        f = random_lstar(rng, rng.randrange(5))
        assert parse_formula(render(f)) == f
    for _ in range(400):
        g = random_pdl(rng, rng.randrange(5))
        assert parse_pdl(render(g)) == g


def test_subformulas_goldens():
    assert subformulas(p) == [p]
    assert subformulas(Imp(p, q)) == [p, q, Imp(p, q)]
    assert subformulas(Box(p)) == [p, Box(p)]


def test_subformulas_closed_and_bounded():
    rng = random.Random(11)
    for _ in range(200):
        f = random_lstar(rng, 4)
        subs = subformulas(f)
        assert len(subs) <= formula_size(f)
        for s in subs:
            assert set(subformulas(s)) <= set(subs)


def test_images_runs_each_rule_once_per_distinct_node():
    # 12 levels of a shared subtree: 8,191 node occurrences over 13 distinct
    # nodes.  Each image counts its leaf occurrences, so every rule reads
    # its children's images.
    f = p
    for _ in range(12):
        f = And(f, f)
    calls = []
    rules = {Atom: lambda g, image, seen: seen.append(g) or 1,
             And: lambda g, image, seen: seen.append(g) or image[g.left] + image[g.right]}
    image = images(f, rules, calls)
    assert len(calls) == len(image) == 13
    assert calls[-1] == f and image[f] == 2 ** 12


def _first_occurrence_postorder(f) -> list:
    """Reference order: each node when its first occurrence is finished,
    walking every occurrence."""
    out = []

    def walk(g):
        for k in CHILDREN[type(g)].formulas(g):
            walk(k)
        if g not in out:
            out.append(g)

    walk(f)
    return out


def test_images_keys_follow_subformulas_order():
    # iota's antecedent lists the readings in this order.
    rng = random.Random(5)
    for _ in range(150):
        for f in (random_lstar(rng, 4), random_pdl(rng, 4)):
            assert subformulas(f) == _first_occurrence_postorder(f)
        g = random_lkstar(rng, 4)
        assert list(images(g, _KSTAR)) == subformulas(g)


def test_images_raises_type_error_for_a_class_with_no_rule():
    ck = bi_model(1, [(0, 0)], [(0, 0)])
    pdl = pdl_model(1, {"a": Relation.empty(1)})
    with pytest.raises(TypeError, match="no rule for Neg"):
        tau(Neg(p))
    with pytest.raises(TypeError, match="no rule for Neg"):
        extension(ck, And(p, Neg(p)))
    with pytest.raises(TypeError, match="no rule for Imp"):
        pdl_extension(pdl, Neg(Imp(p, p)))
    with pytest.raises(TypeError, match="no rule for str"):
        subformulas(And(p, "q"))
    # The class is checked before its children are read: the walk never
    # reaches the string under the PDL negation.
    with pytest.raises(TypeError, match="no rule for Neg"):
        tau(And(p, Neg("q")))


def test_variables():
    assert variables(Bot()) == []
    assert variables(Imp(q, p)) == ["p", "q"]
    assert variables(DiaStar(p)) == ["p"]


def test_formula_size():
    assert formula_size(p) == 1
    assert formula_size(Imp(p, Bot())) == 3
    assert formula_size(BoxP(Comp(Star(PAtom("i")), PAtom("m")), Atom("p"))) == 6


def test_check_fragment():
    assert check_fragment(BoxStar(p), FragmentTag.LSTAR_BOX)
    assert not check_fragment(Dia(p), FragmentTag.LSTAR_BOX)
    assert not check_fragment(parse_pdl("[a;a]p"), FragmentTag.LK_STAR)
    assert check_fragment(parse_pdl("[a*]p"), FragmentTag.LK_STAR)
    assert check_fragment(Box(p), FragmentTag.L)
    assert not check_fragment(BoxStar(p), FragmentTag.L)
    assert not check_fragment(parse_pdl("!p"), FragmentTag.LSTAR)
    assert not check_fragment(Box(p), FragmentTag.LK_STAR)
    assert not check_fragment(parse_formula("false"), FragmentTag.LK_STAR)
    for text in ("[a*;a]p", "[(a;a)*]p", "[i*]p"):
        assert not check_fragment(parse_pdl(text), FragmentTag.LK_STAR)
    for tag in (FragmentTag.LSTAR, FragmentTag.LSTAR_BOX, FragmentTag.L):
        assert not check_fragment(parse_pdl("!p & [a]p"), tag)
    # Against each fragment's node classes, with K*'s two box programs.
    allowed = {
        FragmentTag.LSTAR: {"Bot", "Atom", "And", "Or", "Imp",
                            "Box", "Dia", "BoxStar", "DiaStar"},
        FragmentTag.LSTAR_BOX: {"Bot", "Atom", "And", "Or", "Imp",
                                "Box", "BoxStar"},
        FragmentTag.L: {"Bot", "Atom", "And", "Or", "Imp", "Box", "Dia"},
        FragmentTag.LK_STAR: {"Atom", "Neg", "And", "Or", "BoxP"},
    }
    rng = random.Random(5)
    for make in (random_lstar, random_pdl, random_lkstar):
        for _ in range(500):
            f = make(rng, 4)
            names = {type(g).__name__ for g in iter_nodes(f)}
            progs = {g.prog for g in iter_nodes(f) if isinstance(g, BoxP)}
            for tag, classes in allowed.items():
                assert check_fragment(f, tag) == (
                    names <= classes and progs <= {PAtom("a"), Star(PAtom("a"))}), (
                        render(f), tag)


def test_expand_diamonds():
    f = parse_pdl("<a>p")
    assert f == Neg(BoxP(PAtom("a"), Neg(Atom("p"))))
    assert check_fragment(f, FragmentTag.LK_STAR)
    assert parse_pdl("<a*>!p") == parse_pdl("![a*]!!p")
    assert not check_fragment(parse_pdl("[i]p"), FragmentTag.LK_STAR)


def test_diamond_helper():
    assert diamond(PAtom("m"), Atom("p")) == parse_pdl("<m>p")


# Shapes that nest `n` operators, or `n` parentheses, on one branch.
_NESTED = {
    "negation": (lambda n: "~" * n + "p", lambda n: "!" * n + "p"),
    # Classical a->b is !a | b, so each left operand sits one level lower.
    "implication": (lambda n: "p->" * n + "p", lambda n: "p->" * (n - 1) + "p"),
    "conjunction": (lambda n: "&".join(["p"] * (n + 1)),
                    lambda n: "&".join(["p"] * (n + 1))),
    "parentheses": (lambda n: "(" * n + "p" + ")" * n,
                    lambda n: "(" * n + "p" + ")" * n),
    "star": (lambda n: "[*]" * n + "p", lambda n: "[a" + "*" * (n - 1) + "]p"),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_depth_cap(shape):
    constructive, classical = _NESTED[shape]
    parse_formula(constructive(MAX_DEPTH))
    parse_pdl(classical(MAX_DEPTH))
    with pytest.raises(ParseError):
        parse_formula(constructive(MAX_DEPTH + 1))
    with pytest.raises(ParseError):
        parse_pdl(classical(MAX_DEPTH + 1))


def test_nesting_cap_counts_pdl_diamonds_as_parsed():
    # <a>x is !([a]!x): three nodes, one of them with a program child.
    parse_pdl("<a>" * (MAX_DEPTH // 3) + "!p")
    with pytest.raises(ParseError):
        parse_pdl("<a>" * (MAX_DEPTH // 3 + 1) + "p")


# ---------------------------------------------------------------------------
# The node contract: what a node is, however its constructor is written.


# Per field type: the argument a sample node gets, and another one.
_ARGS = {"str": ("p", "r"), "Program": (PAtom("a"), Star(PAtom("a")))}


def _sample(cls, which: int = 0) -> dict:
    """Keyword arguments for an instance of `cls`."""
    return {f.name: _ARGS.get(f.type, (Atom("q"), Bot()))[which]
            for f in dataclasses.fields(cls)}


def _field_hash(g) -> int:
    return hash(tuple(getattr(g, f.name) for f in dataclasses.fields(g)))


@pytest.mark.parametrize("cls", list(CHILDREN), ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    kwargs = _sample(cls)
    args = list(kwargs.values())
    g = cls(*args)
    assert g == cls(**kwargs) and hash(g) == hash(cls(**kwargs)) == _field_hash(g)
    for other in (dataclasses.replace(g), copy.copy(g), copy.deepcopy(g),
                  pickle.loads(pickle.dumps(g))):
        assert type(other) is cls and other == g and hash(other) == hash(g)
    assert repr(g) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    with pytest.raises(TypeError):
        cls(*args, Atom("r"))
    for name, other in _sample(cls, 1).items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, other)
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != name})
        changed = dataclasses.replace(g, **{name: other})
        assert changed != g and hash(changed) == _field_hash(changed)


def test_node_repr_golden():
    assert repr(And(p, q)) == "And(left=Atom(name='p'), right=Atom(name='q'))"
    assert repr(Bot()) == "Bot()"
    assert repr(BoxP(Star(PAtom("a")), Neg(p))) == \
        "BoxP(prog=Star(body=PAtom(name='a')), body=Neg(body=Atom(name='p')))"


# ---------------------------------------------------------------------------
# The parsers' behaviour on malformed and spaced-out text.  U+3000 is one
# whitespace character of three UTF-8 bytes, so character and byte offsets
# part after it.

_W = "\u3000"
MALFORMED = [
    (parse_formula, "", "expected a formula", 0),
    (parse_formula, "   ", "expected a formula", 3),
    (parse_formula, "p -> ", "expected a formula", 5),
    (parse_formula, "p q", "unexpected trailing input", 2),
    (parse_formula, " \t\np &", "expected a formula", 6),
    (parse_formula, _W + "p q", "unexpected trailing input", 5),
    (parse_formula, "p" + _W + "->" + _W, "expected a formula", 9),
    (parse_formula, "(p", "expected ')'", 2),
    (parse_formula, "(p))", "unexpected trailing input", 3),
    (parse_formula, "[*] ", "expected a formula", 4),
    (parse_formula, "[ * ]p", "expected a formula", 0),
    (parse_formula, "p & & q", "expected a formula", 4),
    (parse_formula, "~" * 101 + "p", "formula nests more than 100 operators", 0),
    (parse_formula, "(" * 101 + "p" + ")" * 101, "more than 100 nested parentheses", 101),
    (parse_formula, "( " * 101 + "p", "more than 100 nested parentheses", 202),
    (parse_formula, "P", "expected a formula", 0),
    (parse_formula, "p -> q -", "unexpected trailing input", 7),
    (parse_formula, "p\n\n)", "unexpected trailing input", 3),
    (parse_formula, "< * >p", "expected a formula", 0),
    (parse_formula, "<>\t", "expected a formula", 3),
    (parse_formula, "false false", "unexpected trailing input", 6),
    (parse_formula, "p_bot ->" + _W * 2, "expected a formula", 14),
    (parse_formula, "\t~ ~ ~", "expected a formula", 6),
    (parse_formula, "p ! q", "unexpected trailing input", 2),
    (parse_pdl, "[x]p", "unknown program atom 'x'", 1),
    (parse_pdl, "!false", "'false' is reserved and not a PDL atom", 1),
    (parse_pdl, "[a", "expected ']'", 2),
    (parse_pdl, "<a]p", "expected '>'", 2),
    (parse_pdl, "[]p", "expected a program", 1),
    (parse_pdl, "[a;]p", "expected a program", 3),
    (parse_pdl, _W.join(("", "[", "a", "*", "]", "false")),
     "'false' is reserved and not a PDL atom", 19),
    (parse_pdl, "p -> \n", "expected a formula", 6),
    (parse_pdl, "[*]p", "expected a program", 1),
    (parse_pdl, "p ! q", "unexpected trailing input", 2),
    (parse_pdl, "[a ; m", "expected ']'", 6),
    (parse_pdl, "  ", "expected a formula", 2),
    (parse_pdl, "<i>", "expected a formula", 3),
    (parse_pdl, "[(a;m]p", "expected ')'", 5),
    (parse_pdl, "!" * 101 + "p", "formula nests more than 100 operators", 0),
    (parse_pdl, "p\t&\tfalse", "'false' is reserved and not a PDL atom", 4),
    (parse_pdl, "[a**] ", "expected a formula", 6),
    (parse_pdl, "~p", "expected a formula", 0),
    (parse_pdl, "[A]p", "expected a program", 1),
]


@pytest.mark.parametrize("parse, text, message, offset", MALFORMED,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(MALFORMED)])
def test_parse_error_message_and_byte_offset(parse, text, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.offset) == (f"{message} (at offset {offset})", offset)


# Every token of the printers' output; whitespace may go between any two.
_TOKEN = re.compile(r"\[\*\]|\[\]|<\*>|<>|->|[a-z][a-z0-9_]*|\S")
_SPACES = ("", "", " ", "  ", "\t", "\n", "\r\n", _W)


def _spaced(text: str, rng: random.Random) -> str:
    out = [rng.choice(_SPACES)]
    for token in _TOKEN.findall(text):
        out += [token, rng.choice(_SPACES)]
    return "".join(out)


def test_render_round_trip_with_random_whitespace():
    rng = random.Random(35)
    for make, parse in ((random_lstar, parse_formula), (random_pdl, parse_pdl)):
        for _ in range(500):
            f = make(rng, rng.randrange(6))
            text = _spaced(render(f), rng)
            assert parse(text) == f, text


@pytest.mark.parametrize("parse", [parse_formula, parse_pdl])
def test_long_whitespace_is_read_in_linear_time(parse):
    # A cursor that slices the text or rescans its whitespace takes
    # quadratic time here.
    start = time.perf_counter()
    assert parse(" " * 10**6 + "p") == p
    with pytest.raises(ParseError) as err:
        parse("p" + " " * 10**6 + "q")
    assert err.value.offset == 1_000_001
    assert time.perf_counter() - start < 2

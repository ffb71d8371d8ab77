"""Metamorphic checks: relations between verdicts that hold whatever the
verdicts are.  They need no oracle, so they reach formulas far past the
bounded model search: seeded depth-5/6 formulas like the `hard`
benchmark's, and the deep `~` and `p->` families."""

from functools import lru_cache

from ckstar.oracle import random_formula
from ckstar.solver import decide
from ckstar.syntax import (
    CHILDREN,
    And,
    Atom,
    Box,
    BoxStar,
    FragmentTag,
    Imp,
    check_fragment,
    parse_formula,
    images,
    parse_pdl,
    render,
)
from ckstar.translate import iota

PQR = ("p", "q", "r")
SEEDED = ([random_formula(s, 5, PQR) for s in range(0, 200, 8)]
          + [random_formula(s, 6, PQR) for s in range(0, 60, 4)])
FAMILIES = ([parse_formula("~" * n + "p") for n in (1, 2, 7, 21, 41)]
            + [parse_formula("p->" * n + "p") for n in (1, 5, 20)])
# Valid by construction, so that the relations also meet valid inputs.
TAUTOLOGIES = [Imp(f, f) for f in SEEDED[::4]]
POOL = SEEDED + FAMILIES + TAUTOLOGIES


@lru_cache(maxsize=None)
def valid(f, logic="ck_star") -> bool:
    return decide(logic, f).valid


def _renamed_node(g, image: dict, names: dict):
    if isinstance(g, Atom):
        return Atom(names.get(g.name, g.name))
    kids = CHILDREN[type(g)].formulas(g)
    return type(g)(*[image[k] for k in kids]) if kids else g


def renamed(f, names: dict):
    return images(f, dict.fromkeys(CHILDREN, _renamed_node), names)[f]


def test_pool_meets_both_verdicts():
    verdicts = [valid(f) for f in POOL]
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 30


def test_renaming_atoms_keeps_the_verdict():
    cycle = {"p": "q", "q": "r", "r": "p"}
    for f in POOL:
        assert valid(renamed(f, cycle)) == valid(f), render(f)


def test_conjunction_is_valid_iff_both_conjuncts_are():
    pairs = list(zip(POOL, POOL[1:])) + list(zip(TAUTOLOGIES, FAMILIES[5:] * 3))
    both = 0
    for a, b in pairs:
        assert valid(And(a, b)) == (valid(a) and valid(b)), (render(a), render(b))
        both += valid(a) and valid(b)
    assert both > 5


def test_necessitation_for_box_and_master_box():
    # Valid A gives valid []A and [*]A.  [*]A -> A is valid, so [*]A is
    # valid only if A is.
    assert valid(parse_formula("[*]p -> p"))
    for f in POOL:
        if valid(f):
            assert valid(Box(f)), render(f)
        assert valid(BoxStar(f)) == valid(f), render(f)


def test_diamond_free_formulas_agree_under_ck_star_box_and_ck_star():
    # The two logics reach PDL by different maps: ck_star_box by tau
    # alone, ck_star through omega first.
    box_free = ([random_formula(s, d, PQR, FragmentTag.LSTAR_BOX)
                 for d, n in ((5, 100), (6, 40)) for s in range(n)]
                + [f for f in POOL if check_fragment(f, FragmentTag.LSTAR_BOX)])
    assert len(box_free) > 140
    for f in box_free:
        assert valid(f, "ck_star_box") == valid(f), render(f)


def test_kstar_validity_matches_ck_star_box_validity_of_iota():
    # The paper's hardness embedding.  Its images grow quadratically, and
    # from depth 4 on some of them take seconds under ck_star_box, so the
    # seeded formulas here stop at depth 3.
    classical = ([random_formula(s, 3, ("p", "q"), FragmentTag.LK_STAR) for s in range(60)]
                 + [parse_pdl("!" * n + "p") for n in (1, 2, 7)]
                 + [parse_pdl("p->" * n + "p") for n in (1, 5, 10)]
                 + [parse_pdl("[a*](p -> [a]p) -> (p -> [a*]p)")])
    verdicts = []
    for f in classical:
        verdicts.append(valid(f, "k_star"))
        assert valid(iota(f), "ck_star_box") == verdicts[-1], render(f)
    assert verdicts.count(True) > 5 and verdicts.count(False) > 30

"""Command-line surface.

Exit codes: 0 for valid/true/clean, 1 for invalid/false/violations, 2 for
usage, parse, fragment, or model-format errors (deep nesting included).
Stdout carries exactly one JSON value per query; diagnostics go to stderr;
a closed stdout ends the command by SIGPIPE.  A `decide @file` batch
answers every line, writes `{"formula", "error"}` for a line that fails to
parse or is outside the logic's language, and exits with the worst code
of its lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys

from .oracle import EnumSpec, brute_force_decide, random_formula, random_model
from .relmodel import (
    MODEL_KINDS,
    BiModel,
    ModelFormatError,
    dump_model,
    load_model,
    model_to_obj,
    validate,
)
from .semantics import pdl_satisfies, satisfies
from .solver import LOGIC_TABLE, LOGICS, CertificationError, decide
from .syntax import (
    FragmentTag,
    is_atom_name,
    parse_formula,
    parse_pdl,
    render,
    variables,
)
from .translate import iota, kappa, omega, tau

# Deepest `gen-formula --depth`.  Generated size grows about 4-fold every 5
# levels: over seeds 0-99 the largest formula has 16,799 nodes at depth 30
# and 158,496 at 40, and depth 2000 overflows the recursion limit.
MAX_GEN_DEPTH = 30

# Parse, fragment, translation and model errors are all ValueErrors.
_USER_ERRORS = (ValueError, OSError)


# `translate --map`: each map with the parser of its input language.
_MAPS = {"omega": (parse_formula, omega), "tau": (parse_formula, tau),
         "iota": (parse_pdl, iota), "kappa": (parse_formula, kappa)}


def _parse_for_logic(logic: str, text: str):
    return (parse_pdl if LOGIC_TABLE[logic].classical else parse_formula)(text)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _iter_batch(path: str):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


def _cmd_decide(args) -> int:
    if args.formula.startswith("@"):
        worst = 0
        for line in _iter_batch(args.formula[1:]):
            try:
                verdict = decide(args.logic, _parse_for_logic(args.logic, line))
            except _USER_ERRORS as err:
                obj, code = {"error": str(err)}, 2
            else:
                obj, code = verdict.to_obj(), 0 if verdict.valid else 1
            obj["formula"] = line
            _emit(obj)
            worst = max(worst, code)
        return worst
    verdict = decide(args.logic, _parse_for_logic(args.logic, args.formula))
    _emit(verdict.to_obj())
    return 0 if verdict.valid else 1


def _cmd_translate(args) -> int:
    parse, translate = _MAPS[args.map]
    print(render(translate(parse(args.formula))))
    return 0


def _load_model_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return load_model(handle.read())


def _cmd_eval(args) -> int:
    model = _load_model_file(args.model)
    if not 0 <= args.world < model.worlds:
        raise ValueError(f"world {args.world} out of range for {model.worlds} worlds")
    if isinstance(model, BiModel):
        value = satisfies(model, args.world, parse_formula(args.formula))
    else:
        value = pdl_satisfies(model, args.world, parse_pdl(args.formula))
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_check_model(args) -> int:
    model = _load_model_file(args.model)
    if not isinstance(model, BiModel):
        raise ModelFormatError("check-model applies to birelational models")
    violations = validate(model, args.kind)
    _emit({"violations": [
        {"condition": v.condition, "worlds": list(v.worlds),
         **({"atom": v.atom} if v.atom is not None else {})}
        for v in violations]})
    return 0 if not violations else 1


def _cmd_oracle(args) -> int:
    f = _parse_for_logic(args.logic, args.formula)
    spec = EnumSpec(args.max_worlds, tuple(variables(f)))
    verdict = brute_force_decide(args.logic, f, spec)
    if verdict.valid_up_to_bound:
        _emit({"verdict": "valid_up_to_bound", "max_worlds": args.max_worlds})
        return 0
    _emit({"verdict": "invalid", "world": verdict.world,
           "model": model_to_obj(verdict.model)})
    return 1


def _atom_names(text: str) -> tuple[str, ...]:
    """The names in a comma-separated --atoms list, each one the parsers
    read back as that atom."""
    atoms = tuple(a for a in text.split(",") if a)
    for a in atoms:
        if not is_atom_name(a):
            raise ValueError(f"{a!r} is not an atom name")
    return atoms


def _cmd_gen_model(args) -> int:
    atoms = _atom_names(args.atoms)
    model = random_model(args.seed, EnumSpec(args.max_worlds, atoms, args.kind))
    print(dump_model(model))
    return 0


def _cmd_gen_formula(args) -> int:
    if not 0 <= args.depth <= MAX_GEN_DEPTH:
        raise ValueError(f"depth {args.depth} is outside 0..{MAX_GEN_DEPTH}")
    atoms = _atom_names(args.atoms)
    fragment = FragmentTag(args.fragment)
    if fragment is FragmentTag.LK_STAR and not atoms:
        raise ValueError("the lk_star fragment needs at least one atom")
    f = random_formula(args.seed, args.depth, atoms, fragment)
    print(render(f))
    return 0


# Built on first use and kept: argparse's objects refer to each other, so a
# parser per `main` call would leave garbage for the cyclic collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckstar",
        description="decision procedures for constructive master-modality logics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide validity in a logic")
    p.add_argument("--logic", required=True, choices=LOGICS)
    p.add_argument("formula", help="formula text, or @file with one formula per line")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("translate", help="apply a formula translation")
    p.add_argument("--map", required=True, choices=tuple(_MAPS))
    p.add_argument("formula")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("eval", help="evaluate a formula at a world of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True, type=int)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-model", help="report model-condition violations")
    p.add_argument("--kind", required=True, choices=MODEL_KINDS)
    p.add_argument("model")
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("oracle", help="bounded brute-force validity")
    p.add_argument("--logic", required=True, choices=LOGICS)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-model", help="seeded random model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kind", default="ck", choices=MODEL_KINDS)
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--atoms", default="p,q")
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("gen-formula", help="seeded random formula")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--atoms", default="p,q")
    p.add_argument("--fragment", default="lstar",
                   choices=tuple(t.value for t in FragmentTag))
    p.set_defaults(func=_cmd_gen_formula)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CertificationError as err:
        print(f"internal error: {err}", file=sys.stderr)
        raise


def console_main() -> None:
    # A closed stdout ends the command quietly, as it ends other filters;
    # `main` called in-process keeps Python's default (BrokenPipeError).
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()

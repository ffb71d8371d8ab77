import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ckstar
from ckstar.cli import MAX_GEN_DEPTH, main
from ckstar.oracle import EnumSpec, brute_force_decide
from ckstar.relmodel import MAX_WORLDS, dump_model, load_model
from ckstar.semantics import satisfies
from ckstar.solver import decide
from ckstar.syntax import Atom, FragmentError, parse_formula

from helpers import bi_model, pdl_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_valid(capsys):
    code, out, err = run(capsys, "decide", "--logic", "wk_star", "~<>false")
    assert code == 0
    assert json.loads(out) == {"verdict": "valid"}


def test_decide_invalid_emits_countermodel(capsys):
    code, out, err = run(capsys, "decide", "--logic", "ck_star", "~<>false")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "invalid"
    model = load_model(json.dumps(obj["model"]))
    assert not satisfies(model, obj["world"], parse_formula("~<>false"))


def test_decide_fragment_error(capsys):
    code, out, err = run(capsys, "decide", "--logic", "ck_star_box", "<>p")
    assert code == 2
    assert "error" in err and out == ""


def test_decide_parse_error(capsys):
    code, out, err = run(capsys, "decide", "--logic", "wk_star", "p ->")
    assert code == 2
    assert "offset" in err


def test_decide_batch(tmp_path, capsys):
    batch = tmp_path / "formulas.txt"
    batch.write_text("p->p\n\np\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--logic", "wk_star", f"@{batch}")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert [l["verdict"] for l in lines] == ["valid", "invalid"]
    assert lines[0]["formula"] == "p->p"


def test_decide_batch_answers_every_line(tmp_path, capsys):
    batch = tmp_path / "formulas.txt"
    batch.write_text("p->p\np ->\np\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--logic", "wk_star", f"@{batch}")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and len(lines) == 3
    assert lines[0] == {"verdict": "valid", "formula": "p->p"}
    assert lines[1]["formula"] == "p ->" and "offset" in lines[1]["error"]
    assert lines[2]["verdict"] == "invalid" and lines[2]["formula"] == "p"


def test_p_bot_is_read_as_an_atom_and_refused_by_check_input(tmp_path, capsys):
    f = parse_formula("p_bot")
    assert f == Atom("p_bot")
    spec = EnumSpec(1, ("p_bot",))
    for logic in ("ck_star", "ck_star_box", "cs4"):
        with pytest.raises(FragmentError):
            decide(logic, f)
        with pytest.raises(FragmentError):
            brute_force_decide(logic, f, spec)
    for logic in ("wk_star", "ws4"):
        assert not decide(logic, f).valid
        assert not brute_force_decide(logic, f, spec).valid_up_to_bound
    refused = "atom 'p_bot' is reserved and not in the language of ck_star"
    for argv in (("decide", "--logic", "ck_star", "p_bot"),
                 ("oracle", "--logic", "ck_star", "p_bot")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and refused in err
    code, out, err = run(capsys, "translate", "--map", "omega", "p_bot")
    assert code == 2 and out == "" and "'p_bot' must not occur" in err
    batch = tmp_path / "formulas.txt"
    batch.write_text("p->p\np_bot\np\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--logic", "ck_star", f"@{batch}")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and len(lines) == 3
    assert lines[0] == {"verdict": "valid", "formula": "p->p"}
    assert lines[1] == {"error": refused, "formula": "p_bot"}
    assert lines[2]["verdict"] == "invalid" and lines[2]["formula"] == "p"


def test_decide_deep_nesting_is_a_parse_error(capsys):
    code, out, err = run(capsys, "decide", "--logic", "wk_star", "~" * 3000 + "p")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_translate_goldens(capsys):
    code, out, _ = run(capsys, "translate", "--map", "tau", "p")
    assert code == 0 and out.strip() == "[i*]p"
    code, out, _ = run(capsys, "translate", "--map", "kappa", "[]p")
    assert code == 0 and out.strip() == "[*]p"
    code, out, _ = run(capsys, "translate", "--map", "omega", "false")
    assert code == 0 and out.strip() == "[*](p_bot & <>p_bot)"
    code, out, _ = run(capsys, "translate", "--map", "iota", "[a]p")
    assert code == 0 and "[*]" in out


def test_eval(tmp_path, capsys):
    m = bi_model(2, [(0, 0), (1, 1)], [(0, 1)], {"p": {1}}, kind="ck")
    path = tmp_path / "model.json"
    path.write_text(dump_model(m), encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--model", str(path), "--world", "0", "[*]p")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "eval", "--model", str(path), "--world", "0", "[]p")
    assert code == 0 and out.strip() == "true"


def test_eval_world_out_of_range(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(dump_model(bi_model(1, [(0, 0)], [])), encoding="utf-8")
    for world in ("5", "-1"):
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--world", world, "p")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_and_check_model_on_a_pdl_model(tmp_path, capsys):
    path = tmp_path / "pdl.json"
    path.write_text(dump_model(pdl_model(2, {"a": [(0, 1)]}, {"p": {1}})),
                    encoding="utf-8")
    for formula, expected, value in (("[a]p", 0, "true"), ("[a]!p", 1, "false")):
        code, out, _ = run(capsys, "eval", "--model", str(path), "--world", "0", formula)
        assert code == expected and out.strip() == value
    for world, formula, message in (("0", "[m]p", "program atom 'm'"),
                                    ("2", "p", "out of range")):
        code, out, err = run(capsys, "eval", "--model", str(path), "--world", world,
                             formula)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
    code, out, err = run(capsys, "check-model", "--kind", "ck", str(path))
    assert code == 2 and out == ""
    assert "check-model applies to birelational models" in err


def test_check_model(tmp_path, capsys):
    bad = bi_model(1, [(0, 0)], [], bot={0})
    path = tmp_path / "bad.json"
    path.write_text(dump_model(bad), encoding="utf-8")
    code, out, _ = run(capsys, "check-model", "--kind", "ck", str(path))
    assert code == 1
    obj = json.loads(out)
    assert {"condition": "falsum-seriality", "worlds": [0]} in obj["violations"]

    good = bi_model(1, [(0, 0)], [(0, 0)])
    path.write_text(dump_model(good), encoding="utf-8")
    code, out, _ = run(capsys, "check-model", "--kind", "ck", str(path))
    assert code == 0 and json.loads(out) == {"violations": []}


def test_check_model_rejects_too_many_worlds(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "ck", "worlds": MAX_WORLDS + 1, "pre": [],
                                "mod": [], "val": {}, "bot": []}), encoding="utf-8")
    code, out, err = run(capsys, "check-model", "--kind", "ck", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", ["[" * 200000, '{"a": ' * 5000],
                         ids=["arrays", "objects"])
def test_deeply_nested_model_file_is_a_format_error(tmp_path, capsys, doc):
    path = tmp_path / "deep.json"
    path.write_text(doc, encoding="utf-8")
    for argv in (("check-model", "--kind", "ck", str(path)),
                 ("eval", "--model", str(path), "--world", "0", "p")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: document nests too deeply\n"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--logic", "ck_star",
                       "--max-worlds", "2", "p->p")
    assert code == 0
    assert json.loads(out)["verdict"] == "valid_up_to_bound"
    code, out, _ = run(capsys, "oracle", "--logic", "ck_star",
                       "--max-worlds", "2", "p")
    assert code == 1
    assert json.loads(out)["verdict"] == "invalid"


def _usage_error(code, out, err) -> bool:
    return code == 2 and out == "" and err.startswith("error: ") \
        and err.count("\n") == 1


def test_oracle_rejects_a_bound_below_one_world(capsys):
    for logic, formula in (("ck_star", "false"), ("pdl", "p&!p")):
        for bound in ("0", "-1"):
            assert _usage_error(*run(capsys, "oracle", "--logic", logic,
                                     "--max-worlds", bound, formula))
    assert _usage_error(*run(capsys, "gen-model", "--seed", "1",
                             "--max-worlds", "0"))
    # A cs4 or ws4 model doubles a constructive one: two worlds at least.
    for kind in ("cs4", "ws4"):
        assert _usage_error(*run(capsys, "gen-model", "--seed", "1",
                                 "--kind", kind, "--max-worlds", "1"))


def test_gen_formula_depth_cap(capsys):
    code, out, _ = run(capsys, "gen-formula", "--seed", "0",
                       "--depth", str(MAX_GEN_DEPTH))
    assert code == 0
    parse_formula(out.strip())
    for depth in (MAX_GEN_DEPTH + 1, -1):
        assert _usage_error(*run(capsys, "gen-formula", "--seed", "0",
                                 "--depth", str(depth)))


def test_gen_formula_rejects_bad_atoms(capsys):
    for atoms in ("P,q", "false", "p q"):
        assert _usage_error(*run(capsys, "gen-formula", "--seed", "3",
                                 "--atoms", atoms))
    assert _usage_error(*run(capsys, "gen-formula", "--seed", "3", "--atoms", "",
                             "--fragment", "lk_star"))


def test_gen_model_rejects_bad_atoms(capsys):
    for atoms in ("p,,Q", "false"):
        assert _usage_error(*run(capsys, "gen-model", "--seed", "3",
                                 "--atoms", atoms))


def _env_with_src() -> dict:
    """This environment, with the package's source first on PYTHONPATH."""
    src = str(Path(ckstar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_package_runs_without_numpy():
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now fails
        import ckstar
        from ckstar.cli import main
        codes = [main(["decide", "--logic", "ck_star", "~<>false"]),
                 main(["oracle", "--logic", "ck_star", "--max-worlds", "2", "p->p"])]
        sys.exit(0 if codes == [1, 0] else f"exit codes {codes}")
    """)
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["ckstar", "ckstar.cli"])
def test_runs_as_a_module(module, capsys):
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-m", module, "decide", "--logic", "ck_star", "p"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    code, out, _ = run(capsys, "decide", "--logic", "ck_star", "p")
    assert done.stdout == out and json.loads(out)["verdict"] == "invalid"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_quietly_by_sigpipe(tmp_path):
    # About 120 KB of answers, more than a pipe buffer holds, so the command
    # is still writing when its reader goes away.
    batch = tmp_path / "many.txt"
    batch.write_text("p & q\n" * 1000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ckstar", "decide", "--logic", "ck_star", f"@{batch}"],
        env=_env_with_src(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert err == b""


def test_gen_commands_deterministic(capsys):
    code, out1, _ = run(capsys, "gen-model", "--seed", "9", "--kind", "wk")
    code2, out2, _ = run(capsys, "gen-model", "--seed", "9", "--kind", "wk")
    assert code == code2 == 0 and out1 == out2
    load_model(out1)
    code, f1, _ = run(capsys, "gen-formula", "--seed", "4", "--fragment", "lstar_box")
    assert code == 0
    parse_formula(f1.strip())


def test_missing_model_file(capsys):
    code, out, err = run(capsys, "eval", "--model", "/nonexistent.json",
                         "--world", "0", "p")
    assert code == 2 and "error" in err


def test_bad_usage(capsys):
    assert main(["decide", "--logic", "nope", "p"]) == 2

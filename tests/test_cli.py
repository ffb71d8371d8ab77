import json

from ckstar.cli import main
from ckstar.relmodel import MAX_WORLDS, bi_model, dump_model, load_model
from ckstar.semantics import satisfies
from ckstar.syntax import parse_formula


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


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--logic", "ck_star",
                       "--max-worlds", "2", "p->p")
    assert code == 0
    assert json.loads(out)["verdict"] == "valid_up_to_bound"
    code, out, _ = run(capsys, "oracle", "--logic", "ck_star",
                       "--max-worlds", "2", "p")
    assert code == 1
    assert json.loads(out)["verdict"] == "invalid"


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

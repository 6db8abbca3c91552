"""End-to-end command-line checks, run in process."""

import json
from pathlib import Path

import pytest

import oughtcheck.cli as cli
from oughtcheck.errors import InternalError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, out, _ = run(
        capsys, "check", "--model", mp, "--actions", ap,
        "--formula", "O{i}(U.gamma | true)",
    )
    assert code == 0
    assert out.strip() == "O{i}(U.gamma | true) at A9: holds"


def test_check_fails(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, out, _ = run(
        capsys, "check", "--model", mp, "--actions", ap,
        "--formula", "O{i}(U.alpha | true)",
    )
    assert code == 1
    assert "fails" in out


def test_check_at_overrides_document_point(capsys, scenario_docs):
    mp, _ = scenario_docs["miners"]
    code, out, _ = run(capsys, "check", "--model", mp, "--formula", "A", "--at", "A10")
    assert code == 0
    assert "at A10: holds" in out


def test_check_global(capsys, scenario_docs):
    mp, _ = scenario_docs["miners"]
    code, out, _ = run(capsys, "check", "--model", mp, "--formula", "true", "--global")
    assert code == 0 and "globally: holds" in out
    code, out, _ = run(capsys, "check", "--model", mp, "--formula", "false", "--global")
    assert code == 1 and "globally: fails" in out


def test_check_json_explanation(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, out, _ = run(
        capsys, "check", "--model", mp, "--actions", ap,
        "--formula", "O{i}(U.gamma | true)", "--json", "--explain",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["world"] == "A9"
    assert doc["explanation"]["clause"] == "obligation"
    assert len(doc["explanation"]["children"]) == 2


def test_check_input_errors(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, _, err = run(capsys, "check", "--model", mp, "--formula", "(p")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "check", "--model", mp, "--formula", "A", "--at", "zz")
    assert code == 2


def test_check_needs_a_world(capsys, scenario_docs, tmp_path):
    mp, _ = scenario_docs["miners"]
    doc = json.loads(Path(mp).read_text())
    doc.pop("point")
    stripped = tmp_path / "no-point.json"
    stripped.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--model", str(stripped), "--formula", "A")
    assert code == 2 and "--at" in err


def test_check_rejects_unknown_semantics(capsys, scenario_docs):
    mp, _ = scenario_docs["miners"]
    with pytest.raises(SystemExit):
        cli.main(["check", "--model", mp, "--formula", "A", "--semantics", "loose"])
    capsys.readouterr()


def test_expect_rows(capsys, scenario_docs):
    mp, ap = scenario_docs["allergy"]
    code, out, _ = run(capsys, "expect", "--model", mp, "--actions", ap, "--agent", "a")
    assert code == 0
    assert "E[a; U.delta;U2.beta] = 40/1" in out.splitlines()
    code, out, _ = run(
        capsys, "expect", "--model", mp, "--actions", ap, "--agent", "b", "--json",
    )
    doc = json.loads(out)
    assert doc["root"] == "w2"
    assert doc["values"]["U.delta;U2.beta"] == "40/1"


def test_expect_miners_point(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, out, _ = run(capsys, "expect", "--model", mp, "--actions", ap, "--agent", "i")
    assert code == 0
    assert out.splitlines() == ["E[i; U.gamma] = 9/1"]


def test_expect_unknown_agent(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, _, err = run(
        capsys, "expect", "--model", mp, "--actions", ap, "--agent", "zz",
    )
    assert code == 2


def test_expect_no_surviving_run(capsys, tmp_path):
    model = {
        "agents": ["a"],
        "atoms": ["p"],
        "frame": "K",
        "worlds": [{"id": "u", "value": 1}, {"id": "v", "true_atoms": ["p"], "value": 2}],
        "relations": {"a": [["u", "u"], ["v", "v"]]},
        "point": "u",
    }
    actions = {
        "actions": [
            {
                "id": "R",
                "owner": "a",
                "events": [{"name": "x", "pre": "p"}, {"name": "y", "pre": "p"}],
            }
        ]
    }
    mp = tmp_path / "m.json"
    ap = tmp_path / "a.json"
    mp.write_text(json.dumps(model))
    ap.write_text(json.dumps(actions))
    code, _, err = run(
        capsys, "expect", "--model", str(mp), "--actions", str(ap), "--agent", "a",
    )
    assert code == 1
    assert "no run survives at u" in err


def test_expect_values_runs_in_the_agents_own_carrier(capsys, tmp_path):
    """U.a needs K{j} p.  In the whole model j also sees w2 (no p) from w0,
    so U.a does not survive there; in i's horizon {w0, w1} it does, and the
    atoms and obligations value it there."""
    model = {
        "agents": ["i", "j"],
        "atoms": ["p"],
        "frame": "K",
        "worlds": [
            {"id": "w0", "true_atoms": ["p"], "value": 5},
            {"id": "w1", "true_atoms": ["p"], "value": 1},
            {"id": "w2", "value": 0},
        ],
        "relations": {
            "i": [["w0", "w0"], ["w0", "w1"], ["w1", "w0"], ["w1", "w1"], ["w2", "w2"]],
            "j": [["w0", "w0"], ["w0", "w2"], ["w1", "w1"], ["w2", "w2"]],
        },
    }
    actions = {
        "actions": [
            {
                "id": "U",
                "owner": "i",
                "events": [{"name": "a", "pre": "K{j} p"}, {"name": "b", "pre": "p"}],
            }
        ]
    }
    mp = tmp_path / "m.json"
    ap = tmp_path / "a.json"
    mp.write_text(json.dumps(model))
    ap.write_text(json.dumps(actions))
    for root in ("w0", "w1"):
        code, out, _ = run(
            capsys, "expect", "--model", str(mp), "--actions", str(ap),
            "--agent", "i", "--at", root,
        )
        assert code == 0
        assert out.splitlines() == ["E[i; U.a] = 3/1", "E[i; U.b] = 3/1"]
        code, out, _ = run(
            capsys, "check", "--model", str(mp), "--actions", str(ap),
            "--formula", "e{i; U.a}", "--at", root, "--explain",
        )
        assert code == 0
        assert "value 3 vs" in out


def test_translate_plain(capsys, scenario_docs):
    _, ap = scenario_docs["allergy"]
    code, out, err = run(
        capsys, "translate", "--actions", ap,
        "--formula", "O{a}(U2.beta | p)", "--trace",
    )
    assert code == 0
    assert out.strip() == "((d' & p) & e{a; U2.beta})"
    assert "[O] R1" in err
    assert "obligation steps certified: True" in err


def test_translate_json(capsys, scenario_docs):
    _, ap = scenario_docs["allergy"]
    code, out, _ = run(
        capsys, "translate", "--actions", ap,
        "--formula", "O{b}(U.delta | O{a}(U2.beta | K{a} A))",
        "--json", "--trace",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["mode"] == "standard"
    assert all(s["decreasing"] for s in doc["steps"] if s["obligation_step"])


def test_axioms_small_run(capsys):
    code, out, _ = run(capsys, "axioms", "--trials", "20", "--seed", "11")
    assert code == 0
    assert "COUNTEREXAMPLES" in out  # the plain negation clause, truthfully red
    assert "gate (" in out and "clean" in out


def test_axioms_json(capsys):
    code, out, _ = run(capsys, "axioms", "--trials", "10", "--seed", "11", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["axioms"]["R1"]["counterexamples"] == 0
    assert doc["informational"]["R3+e"]["counterexamples"] == 0


def test_scenario_miners(capsys):
    code, out, _ = run(capsys, "scenario", "miners")
    assert code == 0
    assert out.count("[PASS]") == 3
    assert "E[i; U.gamma] rooted A9@U.gamma = 9/1" in out
    assert "(info)" in out


def test_scenario_dot_files(capsys, tmp_path):
    dots = tmp_path / "dots"
    code, _, err = run(capsys, "scenario", "allergy", "--dot", str(dots))
    assert code == 0
    for stem in ("allergy-base", "allergy-stage1", "allergy-stage2"):
        text = (dots / f"{stem}.dot").read_text()
        assert text.startswith("digraph model {")
    assert err.count("wrote") == 3


def test_export_dot(capsys, scenario_docs, tmp_path):
    mp, _ = scenario_docs["miners"]
    out_path = tmp_path / "m.dot"
    code, _, _ = run(capsys, "export-dot", "--model", mp, "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph model {")
    assert '"A9" -> "A9"' in text

    code, out, _ = run(capsys, "export-dot", "--model", mp, "--no-loops")
    assert code == 0
    assert '"A9" -> "A9"' not in out


def test_update_writes_the_product(capsys, scenario_docs, tmp_path):
    mp, ap = scenario_docs["miners"]
    out_path = tmp_path / "updated.json"
    code, _, _ = run(
        capsys, "update", "--model", mp, "--actions", ap, "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["point"].startswith("A9@U.")
    assert all("@U." in w["id"] for w in doc["worlds"])


def test_update_by_no_actions_keeps_the_point(capsys, scenario_docs, tmp_path):
    # base worlds are plain ids, so the point is found by base id, not by key[0]
    mp, _ = scenario_docs["miners"]
    empty = tmp_path / "no-actions.json"
    empty.write_text(json.dumps({"actions": []}))
    out_path = tmp_path / "same.json"
    code, _, _ = run(
        capsys, "update", "--model", mp, "--actions", str(empty), "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["point"] == "A9"


def test_validate(capsys, scenario_docs, tmp_path):
    mp, ap = scenario_docs["miners"]
    code, out, _ = run(capsys, "validate", "--model", mp, "--actions", ap)
    assert code == 0 and out.strip() == "ok"

    broken = {
        "agents": ["a"],
        "atoms": [],
        "frame": "S5",
        "worlds": [{"id": "u"}, {"id": "v"}],
        "relations": {"a": [["u", "u"]]},
    }
    bp = tmp_path / "broken.json"
    bp.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "validate", "--model", str(bp))
    assert code == 2
    assert out.strip()


def test_internal_errors_have_their_own_exit_code(capsys, scenario_docs, monkeypatch):
    _, ap = scenario_docs["allergy"]

    def boom(*a, **k):
        raise InternalError("boom")

    monkeypatch.setattr(cli, "translate", boom)
    code, _, err = run(capsys, "translate", "--actions", ap, "--formula", "p")
    assert code == 3
    assert "internal error: boom" in err


def test_uncaught_exceptions_exit_3_not_1(capsys, scenario_docs):
    mp, ap = scenario_docs["miners"]
    code, out, err = run(
        capsys, "check", "--model", mp, "--actions", ap, "--formula", "!" * 3000 + "A",
    )
    assert code == 3
    assert err.strip() == "internal error: RecursionError"
    assert "Traceback" not in err
    assert out == ""


def test_unreadable_documents_are_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (str(bad), str(tmp_path / "missing.json")):
        code, _, err = run(capsys, "check", "--model", path, "--formula", "p")
        assert code == 2
        assert err.startswith("error: cannot read")

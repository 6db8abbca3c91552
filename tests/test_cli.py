"""End-to-end command-line checks, run in process."""

import argparse
import io
import json
import os
import re
import sys
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


def test_check_global_explain_shows_the_first_failing_world(capsys, scenario_docs):
    # A holds at A10, A9 and A0 and fails at B10, B9 and B0 (world order)
    mp, _ = scenario_docs["miners"]
    code, out, _ = run(capsys, "check", "--model", mp, "--formula", "A", "--global", "--explain")
    assert code == 1
    assert out.splitlines() == ["A globally: fails", "- atom: A @ B10"]
    code, out, _ = run(
        capsys, "check", "--model", mp, "--formula", "A", "--global", "--explain", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False and doc["world"] == "B10"
    assert doc["explanation"] == {"formula": "A", "holds": False, "world": "B10", "clause": "atom"}


def test_check_global_explain_of_a_knowledge_formula(capsys, scenario_docs):
    mp, _ = scenario_docs["miners"]
    code, out, _ = run(
        capsys, "check", "--model", mp, "--formula", "K{i} !B", "--global", "--explain",
    )
    assert code == 1
    assert out.splitlines() == [
        "K{i} !B globally: fails",
        "- knowledge: K{i} !B @ A10",
        "  note: fails at successor B10",
        "  - negation: !B @ B10",
        "    + atom: B @ B10",
    ]


def test_check_global_explain_of_a_formula_that_holds(capsys, scenario_docs):
    mp, _ = scenario_docs["miners"]
    code, out, _ = run(capsys, "check", "--model", mp, "--formula", "!(A & B)", "--global", "--explain")
    assert code == 0 and out.splitlines() == ["!(A & B) globally: holds"]
    code, out, _ = run(
        capsys, "check", "--model", mp, "--formula", "!(A & B)", "--global", "--explain", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"formula": "!(A & B)", "global": True, "holds": True}


def test_check_at_and_global_are_alternatives(capsys, scenario_docs):
    mp, _ = scenario_docs["miners"]
    with pytest.raises(SystemExit) as caught:
        cli.main(["check", "--model", mp, "--formula", "A", "--at", "A10", "--global"])
    assert caught.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flag",
    [["--semantics", "loose"], ["--first-conjunct-note"]],
    ids=["semantics", "first-conjunct-note"],
)
def test_check_rejects_unknown_semantics(capsys, scenario_docs, flag):
    mp, _ = scenario_docs["miners"]
    with pytest.raises(SystemExit) as caught:
        cli.main(["check", "--model", mp, "--formula", "A", *flag])
    assert caught.value.code == 2
    capsys.readouterr()


def _readme_cli_reference():
    """{subcommand: its flags} as README's "CLI reference" block lists them."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI reference", 1)[1].split("```")[1]
    flags = {}
    for line in block.strip().splitlines():
        if line.startswith("oughtcheck "):
            command = line.split()[1]
            flags[command] = set()
        flags[command] |= set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", line))
    return flags


def test_readme_cli_reference_matches_the_parser():
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, sub in subparsers.choices.items()
    }
    assert _readme_cli_reference() == parsed


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


def test_expect_on_an_empty_actions_document(capsys, scenario_docs, tmp_path):
    """No decision point means no run to value: bad input, exit 2.  update
    by no point leaves the model as it was."""
    mp, _ = scenario_docs["allergy"]
    empty = tmp_path / "empty.json"
    empty.write_text("[]\n")
    code, out, err = run(
        capsys, "expect", "--model", mp, "--actions", str(empty), "--agent", "a",
    )
    assert (code, out) == (2, "")
    assert err == "error: the actions document declares no decision point\n"
    code, out, _ = run(capsys, "update", "--model", mp, "--actions", str(empty))
    assert code == 0
    assert out == Path(mp).read_text(encoding="utf-8")


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
    assert 0 < doc["output_nodes"] < len(doc["output"])
    assert all(s["decreasing"] for s in doc["steps"] if s["obligation_step"])


def test_translate_trace_pins_readme_headline(capsys, scenario_docs):
    """README's "Translating obligations away" example, step for step."""
    _, ap = scenario_docs["allergy"]
    headline = "O{b}(U.delta | O{a}(U2.beta | K{a} A))"
    code, out, _ = run(
        capsys, "translate", "--actions", ap, "--formula", headline, "--json", "--trace"
    )
    assert code == 0
    doc = json.loads(out)
    steps = doc["steps"]
    assert len(steps) == 19
    # 34 nodes as a tree, 21 distinct
    assert doc["output_nodes"] == 21
    assert [
        (s["rule"], s["complexity_before"], s["complexity_after"], s["obligation_step"])
        for s in steps[:3]
    ] == [("O-X", 72, 61, True), ("O-K", 12, 11, True), ("D-K", 10, 13, False)]
    code, _, err = run(capsys, "translate", "--actions", ap, "--formula", headline, "--trace")
    assert code == 0
    opening = [
        "  [O] O-X            c 72 -> 61 [ok]",
        "  [O] O-K            c 12 -> 11 [ok]",
        "  [-] D-K            c 10 -> 13 [ok]",
    ]
    assert err.splitlines()[:3] == opening
    assert err.splitlines()[-1] == "  obligation steps certified: True"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "\n".join(opening) in readme


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_axioms_need_a_trial(capsys, trials):
    code, out, err = run(capsys, "axioms", "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"error: the axiom suite needs at least one trial, not {trials}\n"


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

    # a designated point that is no world fails the load itself
    bp.write_text(json.dumps({**broken, "point": "zz"}))
    code, _, err = run(capsys, "validate", "--model", str(bp))
    assert code == 2
    assert "'zz'" in err


def test_internal_errors_have_their_own_exit_code(capsys, scenario_docs, monkeypatch):
    _, ap = scenario_docs["allergy"]

    def boom(*a, **k):
        raise InternalError("boom")

    monkeypatch.setattr(cli, "translate", boom)
    code, _, err = run(capsys, "translate", "--actions", ap, "--formula", "p")
    assert code == 3
    assert "internal error: boom" in err


def test_uncaught_exceptions_exit_3_not_1(capsys, scenario_docs, monkeypatch):
    mp, ap = scenario_docs["miners"]

    def broken(*a, **k):
        raise RuntimeError("an invariant the evaluator relies on broke")

    monkeypatch.setattr(cli, "evaluate", broken)
    code, out, err = run(
        capsys, "check", "--model", mp, "--actions", ap, "--formula", "O{i}(U.gamma | true)",
    )
    assert code == 3
    assert err.strip() == "internal error: RuntimeError"
    assert "Traceback" not in err
    assert out == ""


_DEEP = {
    "not": lambda n: "!" * n + "A",
    "and": lambda n: " & ".join(["A"] * (n + 1)),
    "or": lambda n: " | ".join(["A"] * (n + 1)),
    "know": lambda n: "K{i} " * n + "A",
    "parens": lambda n: "(" * n + "A" + ")" * n,
}


@pytest.mark.parametrize("n", [1000, 3000])
@pytest.mark.parametrize("kind", sorted(_DEEP))
def test_deep_formulas_are_bad_input(capsys, scenario_docs, kind, n):
    """Nesting past the limit exits 2 with a ParseError that names it,
    whatever nests: an operator, a derived form or a parenthesis."""
    mp, ap = scenario_docs["miners"]
    code, out, err = run(
        capsys, "check", "--model", mp, "--actions", ap, "--formula", _DEEP[kind](n),
    )
    assert code == 2
    assert err.startswith("error: ") and "64 levels deep, the nesting limit" in err
    assert "Traceback" not in err
    assert out == ""


def test_a_formula_at_the_limit_checks_and_translates(capsys, scenario_docs):
    """64 levels, the limit, in the shape whose translation nests deepest:
    knowledge under an after-run diamond."""
    mp, ap = scenario_docs["allergy"]
    text = "<U.gamma> " + "K{a} " * 63 + "A"
    code, out, err = run(
        capsys, "check", "--model", mp, "--actions", ap, "--formula", text,
        "--explain", "--json",
    )
    assert code in (0, 1), err
    assert json.loads(out)["formula"] == text
    code, out, err = run(capsys, "translate", "--actions", ap, "--formula", text, "--json")
    assert code == 0, err
    assert json.loads(out)["input"] == text


@pytest.fixture(scope="module")
def two_point_docs(tmp_path_factory):
    """U (owned by a) and V (owned by b), whose event x is always available
    and y never, over a two-world S5 model."""
    root = tmp_path_factory.mktemp("runs")
    model = {
        "agents": ["a", "b"], "atoms": ["A"], "frame": "S5",
        "worlds": [{"id": "w1", "true_atoms": ["A"], "value": 1}, {"id": "w2", "value": 0}],
        "relations": {a: [[w, u] for w in ("w1", "w2") for u in ("w1", "w2")] for a in "ab"},
    }
    actions = {"actions": [
        {"id": dp, "owner": owner, "agents": ["a", "b"],
         "events": [{"name": "x", "pre": "true"}, {"name": "y", "pre": "false"}]}
        for dp, owner in (("U", "a"), ("V", "b"))
    ]}
    mp, ap = root / "model.json", root / "actions.json"
    mp.write_text(json.dumps(model))
    ap.write_text(json.dumps(actions))
    return str(mp), str(ap)


@pytest.mark.parametrize("n", [800, 1500])
def test_a_long_run_is_bad_input_to_translate_only(capsys, two_point_docs, n):
    """translate unfolds a run one step per level, so a run past the
    nesting limit exits 2 naming it (800 steps used to exit 3 with a
    RecursionError); check runs the steps one by one and takes it."""
    mp, ap = two_point_docs
    text = "<" + ";".join(f"{'UV'[k % 2]}.x" for k in range(n)) + "> A"
    code, out, err = run(capsys, "translate", "--actions", ap, "--formula", text)
    assert code == 2
    assert err.startswith(f"error: a run of {n} steps") and "the nesting limit of 64" in err
    assert "Traceback" not in err and out == ""
    code, out, err = run(
        capsys, "check", "--model", mp, "--actions", ap, "--formula", text, "--at", "w1"
    )
    assert code == 0, err


def test_unreadable_documents_are_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (str(bad), str(tmp_path / "missing.json")):
        code, _, err = run(capsys, "check", "--model", path, "--formula", "p")
        assert code == 2
        assert err.startswith("error: cannot read")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_ends_the_output_quietly(capsys, monkeypatch, tmp_path):
    sink = tmp_path / "stdout"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = cli.main(["axioms", "--trials", "2", "--seed", "2026", "--json"])
        os.write(fd, b"after")  # stdout's descriptor now points at the null device
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""
    assert sink.read_bytes() == b""

"""Command-line interface.

Exit codes: 0 — success (a checked formula holds); 1 — a checked formula
fails, a scenario misses its expected verdicts, or the axiom suite finds
counterexamples in the expected-clean set; 2 — bad input (unparseable
formula, malformed document, unknown world, frame violation, empty
product, a formula nested past formula.MAX_DEPTH); 3 — an internal
invariant broke or an exception that is not a CheckerError escaped, which
is a bug; 141 — standard output was closed before the output ended (a
pipe into `head`, say): the output stops there, quietly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .actions import env_of
from .docio import (
    dump_json,
    load_actions_file,
    load_model_file,
    model_to_doc,
    to_dot,
)
from .errors import (
    CheckerError,
    EmptyProduct,
    InternalError,
    UnknownProductWorld,
    ValidationError,
)
from .formula import distinct_nodes, to_text, trace_text
from .generate import EXPECTED_CLEAN, run_axiom_suite
from .expect import component_value
from .kripke import base_of, frame_violations, world_id
from .parser import parse
from .product import apply_sequence
from .reduce import MODES, translate
from .scenarios import SCENARIO_NAMES, run_scenario
from .semantics import Verdict, atom_carrier, evaluate, first_failure


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _verdict_dict(v: Verdict) -> Dict:
    out: Dict = {"formula": v.text, "holds": v.holds, "world": v.where}
    if v.clause:
        out["clause"] = v.clause
    if v.note:
        out["note"] = v.note
    if v.values:
        rendered = {}
        for key, val in v.values.items():
            if isinstance(val, Fraction):
                rendered[key] = _frac(val)
            elif isinstance(val, dict):
                rendered[key] = {k: _frac(x) for k, x in val.items()}
            else:
                rendered[key] = val
        out["values"] = rendered
    if v.children:
        out["children"] = [_verdict_dict(c) for c in v.children]
    return out


def _load(args, need_actions: bool = False):
    model, point = load_model_file(args.model)
    points: List = []
    if getattr(args, "actions", None):
        points, notes = load_actions_file(args.actions)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    elif need_actions:
        raise ValidationError("this command needs --actions")
    return model, point, points, env_of(points)


# -- commands ----------------------------------------------------------------------


def cmd_check(args) -> int:
    model, point, _, env = _load(args)
    formula = parse(args.formula, env)
    if args.global_:
        failing = first_failure(model, formula, env)
        result = failing is None
        trail = None if result or not args.explain else evaluate(model, failing, formula, env)
        if args.json:
            doc = {"formula": to_text(formula), "global": True, "holds": result}
            if trail is not None:
                doc["world"] = world_id(failing)
                doc["explanation"] = _verdict_dict(trail)
            print(json.dumps(doc))
        else:
            print(f"{to_text(formula)} globally: {'holds' if result else 'fails'}")
            if trail is not None:
                print(trail.pretty())
        return 0 if result else 1
    world = args.at if args.at is not None else point
    if world is None:
        raise ValidationError(
            "no evaluation world: pass --at or put a \"point\" in the model document"
        )
    model.require_world(world)
    verdict = evaluate(model, world, formula, env)
    if args.json:
        doc = {
            "formula": to_text(formula),
            "world": world_id(world),
            "holds": verdict.holds,
        }
        if args.explain:
            doc["explanation"] = _verdict_dict(verdict)
        print(json.dumps(doc, indent=2))
    else:
        print(f"{to_text(formula)} at {world_id(world)}: "
              f"{'holds' if verdict.holds else 'fails'}")
        if args.explain:
            print(verdict.pretty())
    return 0 if verdict.holds else 1


def cmd_update(args) -> int:
    model, point, points, _ = _load(args, need_actions=True)
    updated = apply_sequence(model, points)
    carried = None
    if point is not None:
        carried = next((w for w in updated.worlds if base_of(w) == point), None)
    text = dump_json(model_to_doc(updated, point=carried))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_expect(args) -> int:
    model, point, points, env = _load(args, need_actions=True)
    root = args.at if args.at is not None else point
    if root is None:
        raise ValidationError(
            "no root world: pass --at or put a \"point\" in the model document"
        )
    model.require_world(root)
    if args.agent not in model.agents:
        raise ValidationError(f"no agent {args.agent!r} in the model")
    if not points:
        raise ValidationError("the actions document declares no decision point")
    rows = []
    # one run per choice of an event at each point, points in declaration order
    for key in itertools.product(*([(p.id, ev) for ev in p.events] for p in points)):
        # valued in the agent's own carrier, as atoms and obligations are
        try:
            carrier, instance = atom_carrier(model, root, args.agent, key, env)
        except (UnknownProductWorld, EmptyProduct):
            continue  # the run does not survive at root, or nowhere in its carrier
        rows.append((key, component_value(carrier, instance, args.agent)))
    if not rows:
        print(f"no run survives at {world_id(root)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "agent": args.agent,
            "root": world_id(root),
            "values": {trace_text(k): _frac(v) for k, v in rows},
        }, indent=2))
    else:
        for key, value in rows:
            print(f"E[{args.agent}; {trace_text(key)}] = {_frac(value)}")
    return 0


def cmd_translate(args) -> int:
    points, notes = load_actions_file(args.actions)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    env = env_of(points)
    formula = parse(args.formula, env)
    result = translate(formula, env, mode=args.mode)
    if args.json:
        doc = {
            "input": to_text(formula),
            "output": to_text(result.result),
            "output_nodes": distinct_nodes(result.result),
            "mode": args.mode,
            "certified": result.certified,
        }
        if args.trace:
            doc["steps"] = [
                {
                    "rule": s.rule,
                    "complexity_before": s.c_before,
                    "complexity_after": s.c_after,
                    "obligation_step": s.obligation_step,
                    "decreasing": s.decreasing,
                }
                for s in result.steps
            ]
        print(json.dumps(doc, indent=2))
        return 0
    print(to_text(result.result))
    if args.trace:
        for s in result.steps:
            mark = "O" if s.obligation_step else "-"
            cert = "ok" if (not s.obligation_step or s.decreasing) else "VIOLATION"
            print(
                f"  [{mark}] {s.rule:14s} c {s.c_before} -> {s.c_after} [{cert}]",
                file=sys.stderr,
            )
        print(
            f"  obligation steps certified: {result.certified}",
            file=sys.stderr,
        )
    return 0


def cmd_axioms(args) -> int:
    report = run_axiom_suite(args.trials, seed=args.seed, frame=args.frame)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.clean() else 1
    print(f"frame {report.frame}, {report.trials} instances, seed {report.seed}")
    for heading, bucket, column, gating in (
        ("axioms (expected clean):", report.axioms, "cex", True),
        ("informational (not gating):", report.informational, "cex", False),
        ("known ambiguities (disagreement counts between readings):",
         report.ambiguities, "diff", False),
    ):
        print(heading)
        for name in sorted(bucket):
            r = bucket[name]
            line = (f"  {name:16s} checked={r.checked:6d} {column}={r.counterexamples:5d}"
                    f" err={r.errors:4d}")
            if gating:
                line += "  ok" if r.counterexamples == 0 else "  COUNTEREXAMPLES"
                line += f"  first: {r.first}" if r.first else ""
            print(line)
    ok = report.clean()
    gated = ", ".join(sorted(EXPECTED_CLEAN))
    print(f"gate ({gated}): {'clean' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_scenario(args) -> int:
    report = run_scenario(args.name)
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        stages = [("base", report.model)] + [
            (f"stage{k}", stage) for k, stage in enumerate(report.stages, start=1)
        ]
        for label, stage in stages:
            path = os.path.join(args.dot, f"{report.name}-{label}.dot")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_dot(stage))
            print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.ok else 1
    print(f"scenario {report.name} (point {report.point})")
    for c in report.claims:
        mark = "PASS" if c.ok else "FAIL"
        note = f"  # {c.claim.note}" if c.claim.note else ""
        print(
            f"  [{mark}] {c.claim.text} at {c.claim.world}:"
            f" {'holds' if c.verdict.holds else 'fails'}"
            f" (expected {'holds' if c.claim.expected else 'fails'}){note}"
        )
        if args.explain:
            print("    " + c.verdict.pretty().replace("\n", "\n    "))
    for row in report.expectations:
        print("  " + row.render())
    for line in report.informational:
        print(f"  (info) {line}")
    return 0 if report.ok else 1


def cmd_export_dot(args) -> int:
    model, _, points, _ = _load(args)
    if points:
        model = apply_sequence(model, points)
    text = to_dot(model, include_loops=not args.no_loops)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_validate(args) -> int:
    if not args.model and not args.actions:
        raise ValidationError("pass --model and/or --actions to validate")
    problems: List[str] = []
    if args.model:
        model, _ = load_model_file(args.model, strict_frame=False)
        problems.extend(frame_violations(model))
    if args.actions:
        points, notes = load_actions_file(args.actions)
        problems.extend(notes)
    if problems:
        for p in problems:
            print(p)
        return 2
    print("ok")
    return 0


# -- wiring ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="oughtcheck",
        description="Model checker for obligation and expectation operators"
        " over action-updated graded Kripke models.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a world")
    p.add_argument("--model", required=True)
    p.add_argument("--actions")
    p.add_argument("--formula", required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--at", help="world to evaluate at (default: the document's point)")
    where.add_argument("--global", dest="global_", action="store_true",
                       help="check all domain worlds instead of one")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("update", help="print the model after running the actions")
    p.add_argument("--model", required=True)
    p.add_argument("--actions", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("expect", help="expected values of the surviving runs")
    p.add_argument("--model", required=True)
    p.add_argument("--actions", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("--at", help="root world (default: the document's point)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("translate", help="rewrite a formula into the plain fragment")
    p.add_argument("--actions", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--mode", choices=list(MODES), default="standard")
    p.add_argument("--trace", action="store_true", help="log every rewrite step")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("axioms", help="run the random-instance axiom suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame", choices=["S5", "KD45", "K"], default="S5")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument("name", choices=list(SCENARIO_NAMES))
    p.add_argument("--json", action="store_true")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--dot", metavar="DIR", help="write DOT files into DIR")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("export-dot", help="render a model (optionally updated) as DOT")
    p.add_argument("--model", required=True)
    p.add_argument("--actions")
    p.add_argument("--out")
    p.add_argument("--no-loops", action="store_true")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("validate", help="check documents against their declarations")
    p.add_argument("--model")
    p.add_argument("--actions")
    p.set_defaults(func=cmd_validate)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the output ends here.  Point
        # stdout at the null device so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, what a shell reports for a piped-to tool cut off
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except CheckerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, never "the formula fails"
        print(f"internal error: {type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

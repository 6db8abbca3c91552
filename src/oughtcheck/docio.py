"""Reading and writing models and decision points as JSON, plus DOT export.

Model documents:

    {"agents": ["a", "b"],
     "atoms": ["p", "q"],
     "frame": "S5",
     "worlds": [{"id": "w1", "true_atoms": ["p"], "value": 3}, ...],
     "relations": {"a": [["w1", "w2"], ...]},
     "point": "w1"}

Relation pairs are explicit — nothing is closed off automatically, and a
declared frame class is checked against the pairs as given.  Documents for
submodels carry "root" (and "agent_filter", "eval_only") as well.  Models
produced by updates render their worlds as "base@DP.event;..." id strings;
such documents reload fine for viewing and DOT export, but the ids are
opaque strings then — trace-aware evaluation needs the original model plus
the decision points.

Decision-point documents (a single object, a list, or {"actions": [...]}):

    {"id": "U", "owner": "b",
     "events": [{"name": "delta", "pre": "A"}, ...],
     "relations": {"a": [["delta", "gamma"]]}}

Event relations default to the identity; missing self-pairs are added and
anything beyond the identity is flagged in the returned notes.  A
precondition may mention decision points declared *earlier* in the same
document: a reference to the point itself or a later one raises
CyclicPrecondition, an undeclared id raises UnknownEvent.

Both loaders check the shape of what they read (objects, lists of strings,
pairs, integer values) and raise ValidationError on anything else, so no
JSON value can make them fail with a non-CheckerError exception.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .actions import DecisionPoint, validate_decision_point
from .errors import (
    CyclicPrecondition,
    UnknownAgent,
    UnknownWorld,
    ValidationError,
)
from .formula import Diamond, ExpAtom, Ought, check_owner, pre_of, subformulas, to_text
from .kripke import GradedKripkeModel, frame_violations, world_id
from .parser import parse

# -- models ---------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    """Reject a malformed document shape."""
    if not ok:
        raise ValidationError(message)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _is_pairs(value) -> bool:
    """A list of two-string lists, as relation pairs are written."""
    return isinstance(value, list) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in value
    )


def model_from_doc(doc: Dict, strict_frame: bool = True) -> Tuple[GradedKripkeModel, Optional[str]]:
    """Build a model from a document; returns (model, designated point)."""
    _require(isinstance(doc, dict), "a model document is a JSON object")
    for key in ("agents", "atoms", "worlds", "relations"):
        if key not in doc:
            raise ValidationError(f"model document lacks {key!r}")
    for key in ("agents", "atoms", "eval_only"):
        _require(_is_strings(doc.get(key, [])), f"{key!r} is a list of strings")
    for key in ("root", "agent_filter", "point"):
        _require(doc.get(key) is None or isinstance(doc[key], str), f"{key!r} is a string")
    _require(isinstance(doc["worlds"], list), "'worlds' is a list")
    _require(isinstance(doc["relations"], dict), "'relations' is a JSON object")
    world_ids: List[str] = []
    valuation = {}
    desirability = {}
    for entry in doc["worlds"]:
        _require(
            isinstance(entry, dict) and isinstance(entry.get("id"), str),
            f"world entry {entry!r} is an object with a string 'id'",
        )
        wid = entry["id"]
        true_atoms = entry.get("true_atoms", [])
        _require(_is_strings(true_atoms), f"'true_atoms' of {wid!r} is a list of strings")
        value = entry.get("value", 0)
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"'value' of {wid!r} is not an integer: {value!r}",
        )
        world_ids.append(wid)
        valuation[wid] = frozenset(true_atoms)
        desirability[wid] = value
    known = set(world_ids)
    relations: Dict[str, Dict[str, set]] = {}
    for agent, pairs in doc["relations"].items():
        if agent not in doc["agents"]:
            raise UnknownAgent(f"relation for undeclared agent {agent!r}")
        _require(isinstance(pairs, list), f"relation of {agent!r} is a list of pairs")
        adj: Dict[str, set] = {w: set() for w in world_ids}
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValidationError(f"relation pair {pair!r} is not a pair of world ids")
            w, u = pair
            if not (isinstance(w, str) and isinstance(u, str) and w in known and u in known):
                raise UnknownWorld(f"relation pair {pair!r} mentions an unknown world")
            adj[w].add(u)
        relations[agent] = adj
    model = GradedKripkeModel(
        agents=doc["agents"],
        atoms=doc["atoms"],
        worlds=world_ids,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame=doc.get("frame", "K"),
        root=doc.get("root"),
        agent_filter=doc.get("agent_filter"),
        eval_only=frozenset(doc.get("eval_only", ())),
        name=doc.get("name"),
    )
    if strict_frame:
        problems = frame_violations(model)
        if problems:
            raise ValidationError(
                "declared frame class does not hold:\n  " + "\n  ".join(problems)
            )
    point = doc.get("point")
    if point is not None:
        model.require_world(point)
    return model, point


def model_to_doc(model: GradedKripkeModel, point=None) -> Dict:
    doc: Dict = {
        "agents": list(model.agents),
        "atoms": list(model.atoms),
        "frame": model.frame,
        "worlds": [
            {
                "id": world_id(w),
                "true_atoms": sorted(model.atoms_at(w)),
                "value": model.value_of(w),
            }
            for w in model.worlds
        ],
        "relations": {
            a: [[world_id(w), world_id(u)] for w, u in model.pairs(a)]
            for a in model.agents
        },
    }
    if model.name:
        doc["name"] = model.name
    if model.root is not None:
        doc["root"] = world_id(model.root)
    if model.agent_filter is not None:
        doc["agent_filter"] = model.agent_filter
    if model.eval_only:
        doc["eval_only"] = sorted(world_id(w) for w in model.eval_only)
    if point is not None:
        doc["point"] = world_id(point)
    return doc


# -- decision points --------------------------------------------------------------


def _check_pre_references(formula, env: Dict, declared: set, where: str) -> None:
    """Trace steps inside a precondition may only use earlier points."""
    for node in subformulas(formula):
        if not isinstance(node, (Diamond, Ought, ExpAtom)):
            continue
        for dp, ev in node.steps:
            if dp in declared and dp not in env:
                raise CyclicPrecondition(
                    f"precondition of {where} refers to {dp!r}, which is not"
                    " declared before it"
                )
            pre_of(env, dp, ev)  # an unknown decision point or event raises here
        if not isinstance(node, Diamond):
            check_owner(env, node.agent, node.steps, f"precondition of {where}:")


def _check_point_shape(entry) -> None:
    _require(isinstance(entry, dict), f"decision point {entry!r} is a JSON object")
    for key in ("id", "owner", "events"):
        if key not in entry:
            raise ValidationError(f"decision point document lacks {key!r}")
    _require(
        isinstance(entry["id"], str) and isinstance(entry["owner"], str),
        "a decision point's 'id' and 'owner' are strings",
    )
    events = entry["events"]
    _require(
        isinstance(events, list)
        and all(
            isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("pre"), str)
            for e in events
        ),
        f"'events' of {entry['id']!r} is a list of objects with string 'name' and 'pre'",
    )
    relations = entry.get("relations")
    _require(
        relations is None
        or (isinstance(relations, dict) and all(map(_is_pairs, relations.values()))),
        f"'relations' of {entry['id']!r} maps agents to lists of event-name pairs",
    )
    _require(
        entry.get("agents") is None or _is_strings(entry["agents"]),
        f"'agents' of {entry['id']!r} is a list of strings",
    )


def actions_from_doc(doc) -> Tuple[List[DecisionPoint], List[str]]:
    """Load decision points in declaration order; returns (points, notes)."""
    if isinstance(doc, dict) and "actions" in doc:
        entries = doc["actions"]
    elif isinstance(doc, dict):
        entries = [doc]
    else:
        entries = doc
    _require(
        isinstance(entries, (list, tuple)),
        "an actions document is a decision point, a list of them, or {\"actions\": [...]}",
    )
    declared = set()
    for entry in entries:
        _check_point_shape(entry)
        if entry["id"] in declared:
            raise ValidationError(f"duplicate decision point id {entry['id']!r}")
        declared.add(entry["id"])
    env: Dict[str, DecisionPoint] = {}
    points: List[DecisionPoint] = []
    notes: List[str] = []
    for entry in entries:
        events = [e["name"] for e in entry["events"]]
        pre = {}
        for e in entry["events"]:
            formula = parse(e["pre"])
            _check_pre_references(
                formula, env, declared, f"{entry['id']}.{e['name']}"
            )
            pre[e["name"]] = formula
        point = DecisionPoint(
            entry["id"],
            entry["owner"],
            events,
            pre,
            relations=entry.get("relations"),
            agents=entry.get("agents"),
            env=env,
        )
        notes.extend(validate_decision_point(point))
        env[point.id] = point
        points.append(point)
    return points, notes


def actions_to_doc(points: List[DecisionPoint]) -> Dict:
    out = []
    for p in points:
        entry: Dict = {
            "id": p.id,
            "owner": p.owner,
            "events": [
                {"name": ev, "pre": to_text(p.pre[ev])} for ev in p.events
            ],
        }
        identity = {(e, e) for e in p.events}
        extras = {
            a: sorted(set(p.relations[a]) - identity)
            for a in p.agents
            if set(p.relations[a]) - identity
        }
        if extras:
            entry["relations"] = {
                a: [list(pair) for pair in pairs] for a, pairs in extras.items()
            }
        if p.agents != (p.owner,):
            entry["agents"] = list(p.agents)
        out.append(entry)
    return {"actions": out}


# -- files -------------------------------------------------------------------------


def _read_json(path: str):
    """A document file's JSON; a file that cannot be read or is not JSON is
    bad input like any malformed document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def load_model_file(path: str, strict_frame: bool = True):
    return model_from_doc(_read_json(path), strict_frame=strict_frame)


def load_actions_file(path: str):
    return actions_from_doc(_read_json(path))


def dump_json(doc: Dict) -> str:
    return json.dumps(doc, indent=2)


# -- DOT ---------------------------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(model: GradedKripkeModel, include_loops: bool = True) -> str:
    """Deterministic DOT rendering: one node per world (id, atoms, value),
    one edge per related pair labeled with the agents sharing it."""
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for w in model.worlds:
        atoms = ",".join(sorted(model.atoms_at(w))) or "-"
        # \n inside a DOT label is a line break, so only quotes get escaped
        label = "\\n".join([world_id(w), atoms, f"f={model.value_of(w)}"])
        attrs = ['label="' + label.replace('"', '\\"') + '"']
        if model.root is not None and w == model.root:
            attrs.append("peripheries=2")
        if w in model.eval_only:
            attrs.append("style=dashed")
        lines.append(f"  {_dot_quote(world_id(w))} [{', '.join(attrs)}];")
    edges: Dict[Tuple, List[str]] = {}
    for agent in model.agents:
        for w, u in model.pairs(agent):
            edges.setdefault((w, u), []).append(agent)
    for (w, u), agents in sorted(
        edges.items(),
        key=lambda kv: (model.world_index(kv[0][0]), model.world_index(kv[0][1])),
    ):
        if w == u and not include_loops:
            continue
        lines.append(
            f"  {_dot_quote(world_id(w))} -> {_dot_quote(world_id(u))}"
            f' [label="{",".join(agents)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

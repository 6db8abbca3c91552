"""Model checker for obligation and expectation operators over
action-updated graded Kripke models.

The core objects:

- :class:`~oughtcheck.kripke.GradedKripkeModel` — finite multi-agent
  Kripke model whose worlds carry an integer desirability value.
- :class:`~oughtcheck.actions.DecisionPoint` — a deliberate choice among
  two or more precondition-guarded events, owned by one agent.
- :func:`~oughtcheck.product.product` — restricted product update of a
  model with a decision point (or a composition of them).
- :func:`~oughtcheck.semantics.evaluate_plain` /
  :func:`~oughtcheck.semantics.evaluate` — truth at a world, without or
  with an explanation tree.
- :func:`~oughtcheck.reduce.translate` — rewrite obligation formulas
  into the plain action fragment, with a per-step decrease certificate.
- :func:`~oughtcheck.generate.run_axiom_suite` — random-instance
  validation of the expected laws.
- :func:`~oughtcheck.scenarios.run_scenario` — the built-in worked
  examples ("miners", "allergy").
"""

from .actions import ComposedAction, DecisionPoint, compose_all, env_of
from .errors import (
    CheckerError,
    CyclicPrecondition,
    EmptyProduct,
    InternalError,
    IsolatedRoot,
    NonTermination,
    NoSuccessors,
    ParseError,
    TraceLeak,
    UnknownAgent,
    UnknownEvent,
    UnknownProductWorld,
    UnknownWorld,
    Unsatisfiable,
    ValidationError,
)
from .expect import component_value, expected_value
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExpAtom,
    Formula,
    Know,
    Not,
    Ought,
    TRUE,
    to_text,
    trace_text,
)
from .generate import GenParams, gen_decision_point, gen_formula, gen_model, run_axiom_suite
from .kripke import GradedKripkeModel, frame_violations, world_id
from .parser import parse
from .product import apply_sequence, product
from .reduce import Translation, complexity, translate
from .scenarios import SCENARIO_NAMES, ScenarioReport, run_scenario
from .semantics import Verdict, evaluate, evaluate_plain, holds_globally
from .submodel import agent_submodel, generated_submodel
from .docio import (
    actions_from_doc,
    actions_to_doc,
    load_actions_file,
    load_model_file,
    model_from_doc,
    model_to_doc,
    to_dot,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "Box", "CheckerError", "ComposedAction",
    "CyclicPrecondition", "DecisionPoint", "Diamond", "EmptyProduct",
    "ExpAtom", "Formula", "GenParams", "GradedKripkeModel", "InternalError",
    "IsolatedRoot", "Know", "NonTermination", "NoSuccessors", "Not",
    "Ought", "ParseError", "SCENARIO_NAMES", "ScenarioReport", "TRUE",
    "TraceLeak", "Translation", "UnknownAgent", "UnknownEvent",
    "UnknownProductWorld", "UnknownWorld", "Unsatisfiable",
    "ValidationError", "Verdict", "actions_from_doc", "actions_to_doc",
    "agent_submodel", "apply_sequence", "complexity", "component_value",
    "compose_all", "env_of", "evaluate", "evaluate_plain",
    "expected_value", "frame_violations", "gen_decision_point",
    "gen_formula", "gen_model", "generated_submodel", "holds_globally",
    "load_actions_file", "load_model_file", "model_from_doc",
    "model_to_doc", "parse", "product", "run_axiom_suite", "run_scenario",
    "to_dot", "to_text", "trace_text", "translate", "world_id",
]

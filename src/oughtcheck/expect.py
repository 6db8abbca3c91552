"""Exact expected desirability of rooted submodels, and expectation atoms.

The expected value of a rooted submodel for an agent is the sum of the
desirabilities over the submodel's domain divided by the number of the
agent's successors of the root inside the submodel — an exact Fraction,
never a float.  A retained evaluation root contributes nothing to the sum
but still anchors the divisor.

An expectation atom holds at an instance (a surviving world of an updated
model) when the agent's component of that instance is at least as valuable
as the component of every surviving rival instance: same trace prefix, same
final decision point, a different final event, any base world.  Ties count
in favour.  Instances that did not survive impose no constraint.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import CheckerError, NoDecisionContext, NoSuccessors
from .kripke import GradedKripkeModel, trace_of, world_id
from .submodel import horizon


def expected_value(sub: GradedKripkeModel, agent: Optional[str] = None) -> Fraction:
    """Expected desirability of a rooted submodel for `agent`."""
    agent = agent if agent is not None else sub.agent_filter
    if agent is None:
        raise NoDecisionContext("no agent given and the submodel fixes none")
    if sub.root is None:
        raise NoDecisionContext("expected value needs a rooted submodel")
    return sub.memo(("ev", agent), _expected_value, sub, agent)


def _expected_value(sub: GradedKripkeModel, agent: str) -> Fraction:
    divisor = len(sub.successors(agent, sub.root))
    if divisor == 0:
        raise NoSuccessors(
            f"agent {agent!r} has no successors of {world_id(sub.root)} here"
        )
    total = 0
    for w in sub.worlds:
        if w not in sub.eval_only:
            total += sub.desirability[w]
    return Fraction(total, divisor)


def component_value(carrier: GradedKripkeModel, instance, agent: str) -> Fraction:
    """Expected desirability of the agent's action component of an instance:
    expected_value(agent_submodel(carrier, instance, agent)), read straight
    off the carrier (memoized on it) instead of building that submodel —
    the desirability summed over the instance's horizon, over its successor
    count.  Instances that share a horizon share its sum."""
    key = ("value", instance, agent)
    return carrier.memo(key, _component_value, carrier, instance, agent)


def _component_value(carrier: GradedKripkeModel, instance, agent: str) -> Fraction:
    reach = horizon(carrier, instance, agent)
    total = carrier.memo(("sum", reach), _desirability_sum, carrier, reach)
    return Fraction(total, len(carrier.successors(agent, instance)))


def _desirability_sum(carrier: GradedKripkeModel, worlds) -> int:
    return sum(carrier.desirability[w] for w in worlds)


def _final_step(instance):
    """(prefix, (decision point, event)) of an instance's trace."""
    trace = trace_of(instance)
    if not trace:
        raise NoDecisionContext(
            f"{world_id(instance)} carries no trace, so it has no rivals"
        )
    return trace[:-1], trace[-1]


def rival_instances(carrier: GradedKripkeModel, instance):
    """Surviving rivals of an instance: same prefix, same final decision
    point, different final event.  Evaluation-only worlds never count."""
    prefix, (final_dp, final_ev) = _final_step(instance)
    groups = carrier.memo(("rival_groups",), _rival_groups, carrier)
    return [
        w for w in groups.get((prefix, final_dp), ()) if trace_of(w)[-1][1] != final_ev
    ]


def _rival_groups(carrier: GradedKripkeModel) -> dict:
    """Surviving instances by (prefix, final decision point), in world order."""
    groups = {}
    for w in carrier.worlds:
        t = trace_of(w)
        if t and w not in carrier.eval_only:
            groups.setdefault((t[:-1], t[-1][0]), []).append(w)
    return groups


def _rival_bound(carrier: GradedKripkeModel, instance, agent: str):
    """What atom_holds compares against, shared by every instance with the
    same prefix and final step: the best rival value before the first rival
    in world order whose value is undefined, that rival's error as
    (class, args), and how many rivals were compared (error is None when
    every rival is defined; best is None when no rival comes first)."""
    key = ("bound", *_final_step(instance), agent)
    return carrier.memo(key, _compare_rivals, carrier, instance, agent)


def _compare_rivals(carrier: GradedKripkeModel, instance, agent: str):
    best = error = None
    compared = 0
    for rival in rival_instances(carrier, instance):
        try:
            value = component_value(carrier, rival, agent)
        except CheckerError as exc:
            error = (type(exc), exc.args)  # no traceback, so no frames kept
            break
        compared += 1
        if best is None or best < value:
            best = value
    return best, error, compared


def atom_holds(carrier: GradedKripkeModel, instance, agent: str) -> bool:
    """Truth of the expectation atom for `agent` at `instance` in `carrier`.

    The verdict is that of walking the rivals in world order and stopping at
    the first one more valuable than the instance (False) or with an
    undefined value (its error): one comparison against _rival_bound."""
    key = ("atom", instance, agent)
    return carrier.memo(key, _atom_verdict, carrier, instance, agent)


def _atom_verdict(carrier: GradedKripkeModel, instance, agent: str) -> bool:
    carrier.require_world(instance)
    mine = component_value(carrier, instance, agent)
    best, error, _ = _rival_bound(carrier, instance, agent)
    if best is not None and mine < best:
        return False
    if error is not None:
        raise error[0](*error[1])
    return True


def atom_report(carrier: GradedKripkeModel, instance, agent: str):
    """atom_holds' verdict with the values behind it: (verdict, own value,
    {rival: value}) over the rivals that atom_holds compared."""
    verdict = atom_holds(carrier, instance, agent)
    compared = _rival_bound(carrier, instance, agent)[2]
    rivals = {
        rival: component_value(carrier, rival, agent)
        for rival in rival_instances(carrier, instance)[:compared]
    }
    return verdict, component_value(carrier, instance, agent), rivals

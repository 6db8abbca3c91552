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

from .errors import NoDecisionContext, NoSuccessors
from .kripke import GradedKripkeModel, trace_of, world_id
from .submodel import horizon


def expected_value(sub: GradedKripkeModel, agent: Optional[str] = None) -> Fraction:
    """Expected desirability of a rooted submodel for `agent`."""
    agent = agent if agent is not None else sub.agent_filter
    if agent is None:
        raise NoDecisionContext("no agent given and the submodel fixes none")
    if sub.root is None:
        raise NoDecisionContext("expected value needs a rooted submodel")
    key = ("ev", agent)
    hit = sub._cache.get(key)
    if hit is None:
        divisor = len(sub.successors(agent, sub.root))
        if divisor == 0:
            raise NoSuccessors(
                f"agent {agent!r} has no successors of {world_id(sub.root)} here"
            )
        total = 0
        for w in sub.worlds:
            if w not in sub.eval_only:
                total += sub.desirability[w]
        hit = Fraction(total, divisor)
        sub._cache[key] = hit
    return hit


def expected_value_at(model: GradedKripkeModel, agent: str, world) -> Fraction:
    """Pointwise form on an arbitrary model: mean desirability of the
    agent's successors.  Kept for completeness; expectation atoms use the
    submodel form, as component_value below."""
    succ = model.successors(agent, world)
    succ = [u for u in succ if u not in model.eval_only]
    if not succ:
        raise NoSuccessors(f"agent {agent!r} has no successors at {world_id(world)}")
    return Fraction(sum(model.desirability[u] for u in succ), len(succ))


def component_value(carrier: GradedKripkeModel, instance, agent: str) -> Fraction:
    """Expected desirability of the agent's action component of an instance:
    expected_value(agent_submodel(carrier, instance, agent)), read straight
    off the carrier (memoized on it) instead of building that submodel —
    the desirability summed over the instance's horizon, over its successor
    count."""
    key = ("value", instance, agent)
    hit = carrier._cache.get(key)
    if hit is None:
        reach = horizon(carrier, instance, agent)
        hit = Fraction(
            sum(carrier.desirability[w] for w in reach),
            len(carrier.successors(agent, instance)),
        )
        carrier._cache[key] = hit
    return hit


def rival_instances(carrier: GradedKripkeModel, instance):
    """Surviving rivals of an instance: same prefix, same final decision
    point, different final event.  Evaluation-only worlds never count."""
    trace = trace_of(instance)
    if not trace:
        raise NoDecisionContext(
            f"{world_id(instance)} carries no trace, so it has no rivals"
        )
    prefix, (final_dp, final_ev) = trace[:-1], trace[-1]
    out = []
    for w in carrier.worlds:
        if w in carrier.eval_only:
            continue
        t = trace_of(w)
        if len(t) != len(trace) or t[:-1] != prefix:
            continue
        dp, ev = t[-1]
        if dp == final_dp and ev != final_ev:
            out.append(w)
    return out


def atom_holds(carrier: GradedKripkeModel, instance, agent: str) -> bool:
    """Truth of the expectation atom for `agent` at `instance` in `carrier`."""
    carrier.require_world(instance)
    key = ("atom", instance, agent)
    hit = carrier._cache.get(key)
    if hit is None:
        mine = component_value(carrier, instance, agent)
        hit = True
        for rival in rival_instances(carrier, instance):
            if mine < component_value(carrier, rival, agent):
                hit = False
                break
        carrier._cache[key] = hit
    return hit


def atom_report(carrier: GradedKripkeModel, instance, agent: str):
    """Like atom_holds, but returns (verdict, own value, {rival: value})."""
    mine = component_value(carrier, instance, agent)
    rivals = {}
    verdict = True
    for rival in rival_instances(carrier, instance):
        rv = component_value(carrier, rival, agent)
        rivals[rival] = rv
        if mine < rv:
            verdict = False
    return verdict, mine, rivals

"""Independent brute-force reference implementations.

Everything here recomputes the definitions from scratch with plain dicts,
sets, and loops: no shared code with the package's own product/submodel/
expectation/evaluation paths.  Where a test asserts a frozen value, this is
the second computation that froze it.

The oracle works on a throwaway model description::

    {"worlds": set, "order": list, "rel": {agent: set[(w, u)]},
     "val": {w: frozenset}, "des": {w: int}, "eval_only": set,
     "agents": tuple, "atoms": tuple}

and raises OracleError wherever the package raises one of its checked
evaluation errors, so error/error counts as agreement.

"order" lists the worlds in the package's world order, recomputed here:
a product lists each world's surviving images in event order, and a
submodel keeps its parent's order with a retained root last.  Rivals are
walked in that order, so an undefined rival raises exactly where the
package's does: only when no more valuable rival comes before it.
"""

from __future__ import annotations

from fractions import Fraction

from oughtcheck.formula import (
    And,
    Atom,
    Diamond,
    ExpAtom,
    Falsity,
    Know,
    Not,
    Ought,
    Truth,
    pre_formula,
)


class OracleError(Exception):
    pass


def omodel(m):
    """Snapshot a package model into the oracle's plain-dict shape."""
    return {
        "worlds": set(m.worlds),
        "order": list(m.worlds),
        "rel": {
            a: {(w, u) for w in m.worlds for u in m.relations[a][w]}
            for a in m.agents
        },
        "val": {w: frozenset(m.valuation[w]) for w in m.worlds},
        "des": {w: int(m.desirability[w]) for w in m.worlds},
        "eval_only": set(m.eval_only),
        "agents": tuple(m.agents),
        "atoms": tuple(m.atoms),
    }


def o_trace(w):
    """An updated world's key is a pair whose second item is a non-empty
    tuple, its trace; any other key, (b, ()) included, is a base world's."""
    if isinstance(w, tuple) and len(w) == 2 and isinstance(w[1], tuple) and w[1]:
        return w[1]
    return ()


def o_extend(w, step):
    t = o_trace(w)
    if t:
        return (w[0], t + (step,))
    return (w, (step,))


def o_succ(om, agent, w):
    return {u for (x, u) in om["rel"][agent] if x == w}


def o_q(dp, agent, e1, e2):
    rel = dp.relations.get(agent)
    if rel is None:
        return e1 == e2
    return (e1, e2) in rel


def o_product(om, dp, env):
    """Update by a single decision point, by direct enumeration."""
    survives = {}
    for w in om["worlds"]:
        evs = [e for e in dp.events if o_eval(om, w, dp.pre[e], env)]
        if evs:
            survives[w] = evs
    order = [o_extend(w, (dp.id, e)) for w in om["order"] for e in survives.get(w, ())]
    worlds = set(order)
    eval_only = set()
    for w, evs in survives.items():
        for e in evs:
            if w in om["eval_only"]:
                eval_only.add(o_extend(w, (dp.id, e)))
    if worlds <= eval_only:
        raise OracleError("empty update")
    rel = {}
    for a in om["agents"]:
        pairs = set()
        for (w, u) in om["rel"][a]:
            for e1 in survives.get(w, ()):
                for e2 in survives.get(u, ()):
                    if o_q(dp, a, e1, e2):
                        pairs.add((o_extend(w, (dp.id, e1)), o_extend(u, (dp.id, e2))))
        rel[a] = pairs
    val = {}
    des = {}
    for w, evs in survives.items():
        for e in evs:
            pw = o_extend(w, (dp.id, e))
            val[pw] = om["val"][w]
            des[pw] = om["des"][w]
    return {
        "worlds": worlds,
        "order": order,
        "rel": rel,
        "val": val,
        "des": des,
        "eval_only": eval_only,
        "agents": om["agents"],
        "atoms": om["atoms"],
    }


def o_composed(om, points, env):
    """Update by the composition of several decision points, by direct
    enumeration.  An event is a trace of one event per point, in order; it
    survives at a world where pre(t), the final event's precondition after
    the steps before it, holds.  Two images are related when their worlds
    are and, step by step, every pair of events is (pairwise, by o_q).
    Worlds are listed base-first, then by the traces in lexicographic
    event order."""
    traces = [()]
    for dp in points:
        traces = [t + ((dp.id, e),) for t in traces for e in dp.events]

    def pre(t):
        dp_id, ev = t[-1]
        last = env[dp_id].pre[ev]
        return Diamond(t[:-1], last) if len(t) > 1 else last

    def image(w, t):
        return (w[0], o_trace(w) + t) if o_trace(w) else (w, t)

    survives = {}
    for w in om["order"]:
        ts = [t for t in traces if o_eval(om, w, pre(t), env)]
        if ts:
            survives[w] = ts
    order = [image(w, t) for w in om["order"] for t in survives.get(w, ())]
    eval_only = {image(w, t) for w in om["eval_only"] for t in survives.get(w, ())}
    if set(order) <= eval_only:
        raise OracleError("empty update")
    rel = {}
    for a in om["agents"]:
        rel[a] = {
            (image(w, t1), image(u, t2))
            for (w, u) in om["rel"][a]
            for t1 in survives.get(w, ())
            for t2 in survives.get(u, ())
            if all(o_q(dp, a, s1[1], s2[1]) for dp, s1, s2 in zip(points, t1, t2))
        }
    return {
        "worlds": set(order),
        "order": order,
        "rel": rel,
        "val": {image(w, t): om["val"][w] for w in survives for t in survives[w]},
        "des": {image(w, t): om["des"][w] for w in survives for t in survives[w]},
        "eval_only": eval_only,
        "agents": om["agents"],
        "atoms": om["atoms"],
    }


def o_reach(om, root, agent=None):
    """Worlds reachable from root in one or more steps."""
    agents = (agent,) if agent is not None else om["agents"]
    seen = set()
    frontier = [u for a in agents for u in o_succ(om, a, root)]
    while frontier:
        w = frontier.pop()
        if w in seen:
            continue
        seen.add(w)
        for a in agents:
            frontier.extend(o_succ(om, a, w))
    return seen


def o_submodel(om, root, agent=None):
    dom = o_reach(om, root, agent)
    if not dom:
        raise OracleError("isolated root")
    worlds = set(dom)
    eval_only = set()
    if root not in dom:
        worlds.add(root)
        eval_only.add(root)
    rel = {}
    for a in om["agents"]:
        pairs = set()
        for w in worlds:
            for u in o_succ(om, a, w):
                if u in dom:
                    pairs.add((w, u))
        rel[a] = pairs
    return {
        "worlds": worlds,
        "order": [w for w in om["order"] if w in dom] + ([] if root in dom else [root]),
        "rel": rel,
        "val": {w: om["val"][w] for w in worlds},
        "des": {w: om["des"][w] for w in worlds},
        "eval_only": eval_only,
        "agents": om["agents"],
        "atoms": om["atoms"],
        "root": root,
    }


def o_expected(sub, agent):
    """Sum of desirabilities over the domain divided by root's successors."""
    root = sub["root"]
    divisor = len(o_succ(sub, agent, root))
    if divisor == 0:
        raise OracleError("no successors")
    total = sum(sub["des"][w] for w in sub["worlds"] if w not in sub["eval_only"])
    return Fraction(total, divisor)


def o_component_value(om, instance, agent):
    return o_expected(o_submodel(om, instance, agent), agent)


def o_rivals(om, instance):
    t = o_trace(instance)
    if not t:
        raise OracleError("no trace")
    out = []
    for w in om["order"]:
        if w in om["eval_only"]:
            continue
        s = o_trace(w)
        if len(s) != len(t) or s[:-1] != t[:-1]:
            continue
        if s[-1][0] == t[-1][0] and s[-1][1] != t[-1][1]:
            out.append(w)
    return out


def o_atom(om, instance, agent):
    mine = o_component_value(om, instance, agent)
    for r in o_rivals(om, instance):
        if mine < o_component_value(om, r, agent):
            return False
    return True


def _o_route(om, w, agent, rest, env):
    cur_m, cur_w = om, w
    for dp_id, ev in rest[:-1]:
        dp = env[dp_id]
        if not o_eval(cur_m, cur_w, dp.pre[ev], env):
            raise OracleError("dead instance")
        cur_m = o_product(cur_m, dp, env)
        cur_w = o_extend(cur_w, (dp_id, ev))
    dp_id, ev = rest[-1]
    dp = env[dp_id]
    sub = o_submodel(cur_m, cur_w, agent)
    carrier = o_product(sub, dp, env)
    instance = o_extend(cur_w, (dp_id, ev))
    if instance not in carrier["worlds"]:
        raise OracleError("dead instance")
    return o_atom(carrier, instance, agent)


def o_eval(om, w, f, env):
    """Truth at (om, w), recomputed from the definitions."""
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsity):
        return False
    if isinstance(f, Atom):
        return f.name in om["val"][w]
    if isinstance(f, Not):
        return not o_eval(om, w, f.sub, env)
    if isinstance(f, And):
        return o_eval(om, w, f.left, env) and o_eval(om, w, f.right, env)
    if isinstance(f, Know):
        return all([o_eval(om, u, f.sub, env) for u in o_succ(om, f.agent, w)])
    if isinstance(f, Diamond):
        cur_m, cur_w = om, w
        for dp_id, ev in f.steps:
            dp = env[dp_id]
            if not o_eval(cur_m, cur_w, dp.pre[ev], env):
                return False
            cur_m = o_product(cur_m, dp, env)
            cur_w = o_extend(cur_w, (dp_id, ev))
        return o_eval(cur_m, cur_w, f.sub, env)
    if isinstance(f, ExpAtom):
        t = o_trace(w)
        s = f.steps
        if s == t:
            return o_atom(om, w, f.agent)
        if len(s) > len(t) and s[: len(t)] == t:
            return _o_route(om, w, f.agent, s[len(t):], env)
        if t and t[-1][0] == s[0][0]:
            raise OracleError("junction")
        return _o_route(om, w, f.agent, s, env)
    if isinstance(f, Ought):
        if not o_eval(om, w, Diamond(f.steps, f.body), env):
            return False
        return _o_route(om, w, f.agent, f.steps, env)
    raise TypeError(f"not a formula: {f!r}")


def o_complexity(f, env):
    """The rewrite certificate's measure, recursive and unmemoised, with
    c(pre(t)) measured on the formula pre_formula builds."""
    if isinstance(f, (Truth, Falsity, Atom, ExpAtom)):
        return 1
    if isinstance(f, Not):
        return 1 + o_complexity(f.sub, env)
    if isinstance(f, And):
        return 1 + max(o_complexity(f.left, env), o_complexity(f.right, env))
    if isinstance(f, Know):
        return 1 + o_complexity(f.sub, env)
    if isinstance(f, Diamond):
        return (4 + o_complexity(pre_formula(f.steps, env), env)) * o_complexity(f.sub, env)
    if isinstance(f, Ought):
        return (5 + o_complexity(pre_formula(f.steps, env), env)) * o_complexity(f.body, env)
    raise TypeError(f"not a formula: {f!r}")

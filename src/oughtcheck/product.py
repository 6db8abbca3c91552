"""Product update: restricting a model by a decision point's preconditions.

The updated model's worlds are (base, trace) keys: every world of the input
paired with every event whose precondition it satisfies.  Edges require both
an edge in the input and event relatedness; valuation and desirability are
inherited — acting never changes the facts' value, only what is reachable.

Worlds are ordered base-first, then by event order, which keeps every
report deterministic.  Retained evaluation roots propagate: their images
survive as evaluation-only worlds with outgoing edges only.
"""

from __future__ import annotations

from .errors import EmptyProduct, TraceLeak
from .kripke import GradedKripkeModel, base_of, extend_world, trace_of, world_id


def product(model: GradedKripkeModel, action) -> GradedKripkeModel:
    """The update of `model` by `action` (memoized on the model)."""
    return model.memo(("product", action), _update, model, action)


def _update(model: GradedKripkeModel, action) -> GradedKripkeModel:
    from .semantics import evaluate_plain  # late import: semantics uses products

    env = getattr(action, "env", None) or {}
    keys = action.event_keys
    survives = {}
    for w in model.worlds:
        for key in keys:
            if evaluate_plain(model, w, action.pre_formula(key), env):
                survives.setdefault(w, []).append(key)

    # each surviving key once: (base, event key) -> product world
    images = {
        w: [(key, extend_world(w, key)) for key in w_keys] for w, w_keys in survives.items()
    }
    worlds = []
    eval_only = set()
    for w in model.worlds:
        for _, pw in images.get(w, ()):
            worlds.append(pw)
            if w in model.eval_only:
                eval_only.add(pw)
    if all(pw in eval_only for pw in worlds):
        raise EmptyProduct(
            f"no world of {model.name or 'the model'} satisfies any precondition "
            f"of {getattr(action, 'id', action)!r}"
        )

    agents = model.agents
    relations = {a: {} for a in agents}
    for a in agents:
        related = {k1: {k2 for k2 in keys if action.q_related(a, k1, k2)} for k1 in keys}
        rel = relations[a]
        targets_of = {}  # (base successor set, event key) -> product successors
        for w in model.worlds:
            w_images = images.get(w)
            if not w_images:
                continue
            succ_w = model.successors(a, w)
            for key, pw in w_images:
                memo_key = (id(succ_w), key)
                targets = targets_of.get(memo_key)
                if targets is None:
                    ok = related[key]
                    targets = targets_of[memo_key] = frozenset(
                        [upw for u in succ_w for ukey, upw in images.get(u, ()) if ukey in ok]
                    )
                rel[pw] = targets

    valuation = {}
    desirability = {}
    for w, w_images in images.items():
        for _, pw in w_images:
            valuation[pw] = model.valuation[w]
            desirability[pw] = model.desirability[w]

    out = GradedKripkeModel(
        agents=agents,
        atoms=model.atoms,
        worlds=worlds,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame="K",
        eval_only=frozenset(eval_only),
        name=f"{model.name or 'model'}*{getattr(action, 'id', '?')}",
    )
    _check_traces(model, out, keys[0])
    return out


def _check_traces(parent: GradedKripkeModel, child: GradedKripkeModel, sample_key):
    """Internal invariant: every product world extends a parent world's trace
    by exactly one event key of the applied action."""
    step_len = len(sample_key)
    for pw in child.worlds:
        base, trace = base_of(pw), trace_of(pw)
        if len(trace) < step_len:
            raise TraceLeak(f"product world {world_id(pw)} lost its trace")
        parent_key = (base, trace[:-step_len]) if len(trace) > step_len else base
        if not parent.has_world(parent_key):
            raise TraceLeak(
                f"product world {world_id(pw)} does not extend a parent world"
            )


def apply_sequence(model: GradedKripkeModel, actions) -> GradedKripkeModel:
    """Update by each action in turn."""
    out = model
    for action in actions:
        out = product(out, action)
    return out

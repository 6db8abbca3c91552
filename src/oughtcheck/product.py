"""Product update: restricting a model by a decision point's preconditions.

The updated model's worlds are (base, trace) keys: every world of the input
paired with every event whose precondition it satisfies.  Edges require both
an edge in the input and event relatedness; valuation and desirability are
inherited — acting never changes the facts' value, only what is reachable.

Worlds are ordered base-first, then by event order, which keeps every
report deterministic.  Retained evaluation roots propagate: their images
survive as evaluation-only worlds with outgoing edges only.  A product
world's key is extend_world of its parent's, so it is not checked again.
"""

from __future__ import annotations

from .errors import CheckerError, EmptyProduct, Stored
from .kripke import GradedKripkeModel, extend_world


def product(model: GradedKripkeModel, action) -> GradedKripkeModel:
    """The update of `model` by `action` (memoized on the model).  An update
    that raises a CheckerError is memoized as that error, stored, and raises
    it again on every later call."""
    out = model.memo(("product", action), _update_or_error, model, action)
    if out.__class__ is Stored:
        raise out.rebuild()
    return out


def _update_or_error(model: GradedKripkeModel, action):
    try:
        return _update(model, action)
    except CheckerError as exc:
        return Stored(exc)


def _update(model: GradedKripkeModel, action) -> GradedKripkeModel:
    from .semantics import evaluate_plain  # late import: semantics uses products

    env = action.env
    pres = [(key, action.pre_formula(key)) for key in action.event_keys]
    # one pass over the worlds, in world order: each surviving (world, event
    # key) becomes a product world inheriting the world's facts and value
    images = {}  # world -> [(event key, product world)]
    worlds = []
    eval_only = set()
    valuation = {}
    desirability = {}
    for w in model.worlds:
        w_images = [
            (key, extend_world(w, key)) for key, pre in pres if evaluate_plain(model, w, pre, env)
        ]
        if not w_images:
            continue
        images[w] = w_images
        val, value = model.valuation[w], model.desirability[w]
        for _, pw in w_images:
            worlds.append(pw)
            valuation[pw] = val
            desirability[pw] = value
        if w in model.eval_only:
            eval_only.update(pw for _, pw in w_images)
    if len(eval_only) == len(worlds):
        raise EmptyProduct(
            f"no world of {model.name or 'the model'} satisfies any precondition "
            f"of {action.id!r}"
        )

    relations = {}
    for a in model.agents:
        related = action.related(a)
        rel = relations[a] = {}
        succ_of = model.relations[a]
        targets_of = {}  # (base successor set, event key) -> product successors
        for w, w_images in images.items():
            succ_w = succ_of[w]
            for key, pw in w_images:
                memo_key = (id(succ_w), key)
                targets = targets_of.get(memo_key)
                if targets is None:
                    ok = related[key]
                    targets = targets_of[memo_key] = frozenset(
                        [upw for u in succ_w for ukey, upw in images.get(u, ()) if ukey in ok]
                    )
                rel[pw] = targets

    return GradedKripkeModel(
        agents=model.agents,
        atoms=model.atoms,
        worlds=worlds,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame="K",
        eval_only=frozenset(eval_only),
        name=f"{model.name or 'model'}*{action.id}",
    )


def apply_sequence(model: GradedKripkeModel, actions) -> GradedKripkeModel:
    """Update by each action in turn."""
    out = model
    for action in actions:
        out = product(out, action)
    return out

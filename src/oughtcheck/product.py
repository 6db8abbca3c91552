"""Product update: restricting a model by a decision point's preconditions.

The updated model's worlds are (base, trace) keys: every world of the input
paired with every event whose precondition it satisfies.  Edges require both
an edge in the input and event relatedness; valuation and desirability are
inherited — acting never changes the facts' value, only what is reachable.

A precondition built only from atoms, true, false, ! and & (a
propositional one) is settled by a world's valuation alone.  When every
precondition of a decision point is propositional, which the point records
when it is built, the surviving events are decided once per distinct
valuation, at the first world in world order that has it, so the verdicts
and the first error raised are those of walking every world.  Any other
point has its preconditions walked at every world.

Worlds are ordered base-first, then by event order, which keeps every
report deterministic.  Retained evaluation roots propagate: their images
survive as evaluation-only worlds with outgoing edges only.  A product
world's key is extend_world of its parent's, so it is not checked again,
and its facts and value are its parent world's objects, so the model is
built without normalising them again.
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
        return _update(model, action, model.agents)
    except CheckerError as exc:
        return Stored(exc)


def _update(model: GradedKripkeModel, action, agents) -> GradedKripkeModel:
    """The update of `model` by `action`, relating `agents` only.  product
    relates every agent of the model; an expectation carrier relates only
    its own agent, the one relation an expectation reads."""
    evaluate_plain = semantics.evaluate_plain
    env = action.env
    pres = [(key, action.pre_formula(key)) for key in action.event_keys]
    # a propositional point's surviving events depend on the valuation only,
    # so they are decided at the first world in world order with each one
    by_valuation = {} if action.propositional else None
    # one pass over the worlds, in world order: each surviving (world, event
    # key) becomes a product world inheriting the world's facts and value
    images = {}  # world -> [(event key, product world)]
    worlds = []
    eval_only = set()
    valuation = {}
    desirability = {}
    base_valuation, base_desirability = model.valuation, model.desirability
    for w in model.worlds:
        val = base_valuation[w]
        keys = None if by_valuation is None else by_valuation.get(val)
        if keys is None:
            keys = [key for key, pre in pres if evaluate_plain(model, w, pre, env)]
            if by_valuation is not None:
                by_valuation[val] = keys
        if not keys:
            continue
        w_images = images[w] = [(key, extend_world(w, key)) for key in keys]
        value = base_desirability[w]
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

    # an image's successors depend only on its world's successor set and on
    # the events related to its own, so they are made once per (successor
    # set, relatedness set): a blind agent's once per successor set
    relations = {}
    shared = {}  # one object per distinct product successor set
    for a in agents:
        related = action.related(a)  # one object per distinct relatedness set
        rel = relations[a] = {}
        succ_of = model.relations[a]
        # id(base successor set) -> (its worlds' images by event key,
        # {id(relatedness set): targets}, {event key: targets})
        targets_of = {}
        for w, w_images in images.items():
            succ_w = succ_of[w]
            known = targets_of.get(id(succ_w))
            if known is None:
                by_key = {}
                for u in succ_w:
                    for ukey, upw in images.get(u, ()):
                        bucket = by_key.get(ukey)
                        if bucket is None:
                            by_key[ukey] = [upw]
                        else:
                            bucket.append(upw)
                known = targets_of[id(succ_w)] = by_key, {}, {}
            by_key, made, per_key = known
            for key, pw in w_images:
                targets = per_key.get(key)
                if targets is None:
                    ok = related[key]
                    targets = made.get(id(ok))
                    if targets is None:
                        targets = frozenset([upw for k in ok for upw in by_key.get(k, ())])
                        targets = made[id(ok)] = shared.setdefault(targets, targets)
                    per_key[key] = targets
                rel[pw] = targets

    return GradedKripkeModel(
        agents=agents,
        atoms=model.atoms,
        worlds=worlds,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame="K",
        eval_only=eval_only,
        name=f"{model.name or 'model'}*{action.id}",
        _derived=True,
    )


def apply_sequence(model: GradedKripkeModel, actions) -> GradedKripkeModel:
    """Update by each action in turn."""
    out = model
    for action in actions:
        out = product(out, action)
    return out


# semantics imports this module's functions, so it is bound after them; read
# through the module, evaluate_plain is the one semantics holds at the call
from . import semantics  # noqa: E402

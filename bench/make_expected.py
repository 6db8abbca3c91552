"""Make the pool and expected-outcome files in ``bench/expected/``.

    python3 bench/make_expected.py [--workload NAME]

Needs a full checkout: it imports the brute-force oracle from
``tests/oracles.py``.  It re-runs itself under the benchmark's pinned
PYTHONHASHSEED, because the oracle's rival walk and the package's eager K
depend on set order.

Verdicts and error/non-error status come from the oracle.  Where the oracle
raises, the expected class is the one the package's explained `evaluate`
raises at this commit (it walks successors in world order), else the one
`evaluate_plain` raises, else ``E`` (no class).  The oracle's definitions are
used as they are, with shims that change no result: successor lookup is
indexed, and a model snapshot memoises its products and submodels.

Each file also lists the ops that fail at the commit it was made on
(``known_failures``), found by running the benchmark's own ops on this
commit.  The runner reports a failed op outside that list as incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import workloads as W  # noqa: E402

SWEEP_WORLDS, SWEEP_CELLS, SWEEP_POOL = 200, 5, 5
SUITE_POOL, SUITE_MASTER_SEED = 600, 2026
BATCH_MODELS, BATCH_FORMULAS, BATCH_DEPTH = 8, 100, 3


def oracle():
    import oracles as O

    def o_succ(om, agent, w):
        adj = om.setdefault("_adj", {})
        if agent not in adj:
            table = adj[agent] = {}
            for x, u in om["rel"][agent]:
                table.setdefault(x, set()).add(u)
        return set(adj[agent].get(w, ()))

    plain_product = O.o_product

    def o_product(om, dp, env):
        memo = om.setdefault("_prod", {})
        if dp.id not in memo:
            memo[dp.id] = plain_product(om, dp, env)
        return memo[dp.id]

    plain_submodel = O.o_submodel

    def o_submodel(om, root, agent=None):
        memo = om.setdefault("_sub", {})
        if (root, agent) not in memo:
            memo[root, agent] = plain_submodel(om, root, agent)
        return memo[root, agent]

    O.o_succ = o_succ
    O.o_product = o_product
    O.o_submodel = o_submodel
    return O


def reference_tokens(oc, O, model, om, env, f) -> list:
    out = []
    for w in model.worlds:
        try:
            out.append("T" if O.o_eval(om, w, f, env) else "F")
            continue
        except O.OracleError:
            pass
        cls = "E"
        for call in (oc.evaluate, oc.evaluate_plain):
            try:
                call(model, w, f, env)
            except oc.CheckerError as exc:
                cls = type(exc).__name__
                break
        out.append(cls)
    return out


def write(name: str, doc: dict):
    os.makedirs(W.EXPECTED_DIR, exist_ok=True)
    path = os.path.join(W.EXPECTED_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path} ({os.path.getsize(path)} bytes)", file=sys.stderr)


def failing_ops(workload) -> list:
    """Run every op of the pool once (one round) on this commit."""
    failed = []
    for op_id, expected, op in workload.round(0):
        got = op()
        if len(got) != len(expected) or not all(map(W.matches, expected, got)):
            failed.append(op_id)
    return sorted(failed)


# -- obligation-sweep --------------------------------------------------------------------


def make_sweep(oc, O):
    docs = []
    for k in range(SWEEP_POOL):
        t0 = time.perf_counter()
        doc = W.sweep_doc(SWEEP_WORLDS, SWEEP_CELLS, k)
        model, _ = oc.model_from_doc(doc)
        env = oc.env_of(oc.actions_from_doc(W.SWEEP_ACTIONS)[0])
        f = oc.parse(W.SWEEP_FORMULA, env)
        tokens = reference_tokens(oc, O, model, O.omodel(model), env, f)
        docs.append({"digest": W.digest(doc), "expected": tokens})
        print(f"sweep doc {k}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    pool = {"worlds": SWEEP_WORLDS, "cells": SWEEP_CELLS, "docs": docs, "known_failures": []}
    write("obligation-sweep", pool)
    pool["known_failures"] = failing_ops(W.Sweep(oc, 0))
    write("obligation-sweep", pool)
    return {"docs": SWEEP_POOL, "ops": SWEEP_POOL * SWEEP_WORLDS, "failing_ops": len(pool["known_failures"])}


# -- axiom-suite --------------------------------------------------------------------------


def oracle_suite(oc, O, seed):
    """run_axiom_suite(1, seed) with every truth value taken from the oracle.

    The suite's own structure (instance generation, deliberation contexts,
    product stages) stays the package's; only the verdicts it compares are
    replaced."""
    import oughtcheck.generate as G

    snaps = {}

    def snap(model):
        hit = snaps.get(id(model))
        if hit is None:
            hit = snaps[id(model)] = (model, O.omodel(model))
        return hit[1]

    class OracleError(oc.CheckerError):
        pass

    def evaluate_plain(model, world, f, env):
        try:
            return O.o_eval(snap(model), world, f, env)
        except O.OracleError as exc:
            raise OracleError(str(exc)) from None

    def holds_globally(model, f, env):
        return all(evaluate_plain(model, w, f, env) for w in model.domain_worlds())

    def atom_holds(carrier, instance, agent):
        carrier.require_world(instance)
        try:
            return O.o_atom(snap(carrier), instance, agent)
        except O.OracleError as exc:
            raise OracleError(str(exc)) from None

    saved = {n: getattr(G, n) for n in ("evaluate_plain", "holds_globally", "atom_holds")}
    G.evaluate_plain, G.holds_globally, G.atom_holds = evaluate_plain, holds_globally, atom_holds
    try:
        return G.run_axiom_suite(1, seed, frame="S5")
    finally:
        for n, fn in saved.items():
            setattr(G, n, fn)


def make_suite(oc, O):
    import oughtcheck.generate as G

    schemas = (
        [f"axioms/{n}" for n in G.EXPECTED_CLEAN + G.REPORTED_RED]
        + [f"informational/{n}" for n in G.INFORMATIONAL]
        + [f"ambiguities/{n}" for n in G.AMBIGUOUS]
    )
    master = random.Random(SUITE_MASTER_SEED)
    seeds = [master.randrange(2**32) for _ in range(SUITE_POOL)]
    expected = []
    t0 = time.perf_counter()
    for k, s in enumerate(seeds):
        expected.append(" ".join(W.suite_tokens(oracle_suite(oc, O, s).as_dict(), schemas)))
        if k % 200 == 199:
            print(f"suite {k + 1}/{SUITE_POOL}: {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    pool = {
        "master_seed": SUITE_MASTER_SEED,
        "schemas": schemas,
        "seeds": seeds,
        "expected": expected,
        "known_failures": [],
    }
    write("axiom-suite", pool)
    pool["known_failures"] = failing_ops(W.AxiomSuite(oc, 0))
    write("axiom-suite", pool)
    sums = Counter()
    for line in expected:
        for schema, tok in zip(schemas, line.split()):
            sums[schema] += int(tok.split("/")[1])
    clean = sum(sums[f"axioms/{n}"] for n in G.EXPECTED_CLEAN)
    return {
        "trials": SUITE_POOL,
        "expected_clean_counterexamples": clean,
        "R3_counterexamples": sums["axioms/R3"],
        "failing_ops": len(pool["known_failures"]),
    }


# -- formula-batch -------------------------------------------------------------------------


def batch_inputs(oc, m):
    from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model

    rng = random.Random(f"formula-batch:{m}")
    params = GenParams(min_worlds=30, max_worlds=35, max_agents=3, frame=("K", "KD45")[m % 2])
    model = gen_model(rng, params)
    while len(model.agents) < 3:
        model = gen_model(rng, params)
    env = {}
    env["U"] = gen_decision_point(rng, model, "U", params, owner="a", env=env)
    env["V"] = gen_decision_point(rng, model, "V", params, owner="b", env=env)
    texts = [oc.to_text(gen_formula(rng, model, env, BATCH_DEPTH)) for _ in range(BATCH_FORMULAS)]
    return {
        "model": oc.model_to_doc(model),
        "actions": oc.actions_to_doc(list(env.values())),
        "formulas": texts,
    }


def batch_reference(oc, O, entry) -> list:
    model, env = W.load_batch_model(oc, entry)
    om = O.omodel(model)
    out = []
    for text in entry["formulas"]:
        worlds = reference_tokens(oc, O, model, om, env, oc.parse(text, env))
        translated = W.batch_op(oc, model, env, text)[-1]
        out.append(" ".join(["ok", *worlds, worlds[0], translated]))
    return out


def plain_tokens(oc, entry) -> list:
    model, env = W.load_batch_model(oc, entry)
    return [
        [W.verdict(oc, lambda: oc.evaluate_plain(model, w, f, env)) for w in model.worlds]
        for f in (oc.parse(t, env) for t in entry["formulas"])
    ]


def make_batch(oc, O):
    models = []
    for m in range(BATCH_MODELS):
        t0 = time.perf_counter()
        entry = batch_inputs(oc, m)
        entry["expected"] = batch_reference(oc, O, entry)
        models.append(entry)
        print(
            f"batch model {m} ({entry['model']['frame']}, {len(entry['model']['worlds'])} worlds):"
            f" {time.perf_counter() - t0:.1f}s",
            file=sys.stderr,
        )
    pool = {"models": models, "known_failures": []}
    write("formula-batch", pool)
    pool["known_failures"] = failing_ops(W.FormulaBatch(oc, 0))
    write("formula-batch", pool)

    # The two order defects, counted per (formula, world) evaluate_plain outcome.
    other = subprocess.run(
        [sys.executable, __file__, "--plain-tokens"],
        env={**os.environ, "PYTHONHASHSEED": "1"},
        capture_output=True, text=True, check=True,
    )
    under_1 = json.loads(other.stdout.strip().splitlines()[-1])
    pairs = swapped = order_class = status = 0
    for entry, rows_1 in zip(models, under_1):
        rows_0 = plain_tokens(oc, entry)
        for line, row0, row1 in zip(entry["expected"], rows_0, rows_1):
            ref = line.split()[1:-2]
            for e, a, b in zip(ref, row0, row1):
                pairs += 1
                swapped += a != b and W.is_error(a) and W.is_error(b)
                if (e in "TF") != (a in "TF"):
                    status += 1
                elif a not in "TF" and not W.matches(e, a):
                    order_class += 1
    deep = [i for i in pool["known_failures"] if i.startswith("deep:")]
    return {
        "models": BATCH_MODELS,
        "formulas_per_model": BATCH_FORMULAS,
        "deep_ops_per_round": len(W.DEEP_KINDS) * len(W.DEEP_DEPTHS),
        "failing_ops": len(pool["known_failures"]),
        "failing_deep_ops": deep,
        "plain_pairs": pairs,
        "plain_class_differs_between_hash_seeds_0_and_1": swapped,
        "plain_class_differs_from_world_order_class": order_class,
        "plain_status_differs_from_oracle": status,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--plain-tokens", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import oughtcheck as oc

    if args.plain_tokens:
        print(json.dumps([plain_tokens(oc, e) for e in W.load_pool("formula-batch")["models"]]))
        return 0
    if os.environ.get("PYTHONHASHSEED") != W.HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": W.HASH_SEED}
        return subprocess.run([sys.executable, __file__, *(argv or sys.argv[1:])], env=env).returncode
    O = oracle()
    makers = {"obligation-sweep": make_sweep, "axiom-suite": make_suite, "formula-batch": make_batch}
    summary = {}
    for name, make in makers.items():
        if args.workload in (None, name):
            summary[name] = make(oc, O)
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

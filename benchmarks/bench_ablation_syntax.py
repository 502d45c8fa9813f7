"""Benchmark AB2: a formal syntax rule that is precisely wrong.

Denney & Pai's formalisation asserts goals cannot connect to other goals
— although 'GSN explicitly allows goals to support other goals [30]'
(§III.I).  This ablation generates a corpus of standard-conformant
arguments with varying amounts of goal-to-goal support and measures the
false-rejection rate of the Denney-Pai rule set against the GSN-standard
rule set: the formalisation rejects valid arguments at exactly the rate
goal-to-goal decomposition is used.
"""

import random

from repro import check
from repro.core.builder import ArgumentBuilder
from repro.core.wellformed import (
    DENNEY_PAI_RULES,
    GSN_STANDARD_RULES,
)
from repro.experiments.tables import render_rows


def _make_argument(seed: int, direct_goal_share: float):
    """A standard-conformant argument; some hazards decompose directly
    goal-to-goal (allowed by the standard), others via a strategy."""
    rng = random.Random(seed)
    builder = ArgumentBuilder(f"corpus-{seed}")
    top = builder.goal("The system is acceptably safe")
    strategy = builder.strategy(
        "Argument over identified hazards", under=top
    )
    uses_direct = False
    for index in range(6):
        goal = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        if rng.random() < direct_goal_share:
            sub = builder.goal(
                f"The H{index} barrier operates on demand", under=goal
            )
            builder.solution(f"Barrier proof test {index}", under=sub)
            uses_direct = True
        else:
            sub_strategy = builder.strategy(
                f"Argument over H{index} controls", under=goal
            )
            sub = builder.goal(
                f"The H{index} control is effective", under=sub_strategy
            )
            builder.solution(f"Control analysis {index}", under=sub)
    return builder.build(), uses_direct


def _sweep():
    rows = []
    for share in (0.0, 0.25, 0.5, 0.75, 1.0):
        total = 40
        standard_rejects = 0
        denney_rejects = 0
        for seed in range(total):
            argument, _ = _make_argument(seed, share)
            if not check(argument, GSN_STANDARD_RULES).well_formed:
                standard_rejects += 1
            if not check(argument, DENNEY_PAI_RULES).well_formed:
                denney_rejects += 1
        rows.append({
            "goal-to-goal share": share,
            "standard rejects": standard_rejects,
            "denney-pai rejects": denney_rejects,
            "false-rejection rate": denney_rejects / total,
        })
    return rows


def bench_ablation_syntax_false_rejections(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=2, iterations=1)
    print()
    print(render_rows(
        rows,
        title="Denney-Pai goal-to-goal rule: false rejections of "
              "standard-conformant arguments",
    ))
    # The standard accepts everything in the corpus.
    assert all(row["standard rejects"] == 0 for row in rows)
    # The Denney-Pai variant rejects nothing at share 0 and everything
    # it can see as the share grows.
    assert rows[0]["denney-pai rejects"] == 0
    assert rows[-1]["denney-pai rejects"] == 40
    rates = [row["false-rejection rate"] for row in rows]
    assert rates == sorted(rates)

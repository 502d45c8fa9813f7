#!/usr/bin/env python3
"""Typed GSN pattern instantiation, after Matsuno & Taguchi (§III.L).

Demonstrates the full formal pattern mechanism:

* a pattern with typed parameters, including the 0-100% range-restricted
  residual-risk parameter from Matsuno's own example,
* partial-instantiation annotations (``[2/x, /y, "hello"/z]`` style),
* multiplicity expansion over a hazard list,
* the misuses type checking *does* prevent (range violations, partial
  bindings, wrong types) — and the one it cannot: Matsuno's 'Railway
  hazards' instantiated for a system name is well-typed nonsense that
  sails straight through.

Run: ``python examples/pattern_instantiation.py``
"""

from repro import check
from repro.core.patterns import (
    Binding,
    InstantiationError,
    hazard_avoidance_pattern,
)
from repro.notation import render_tree


def main() -> None:
    pattern = hazard_avoidance_pattern()

    print("=== Pattern parameters ===")
    for parameter in pattern.parameters:
        print(f"  {parameter}")
    print()

    partial = Binding.of(system="ACME light-rail brake")
    print("=== Partial instantiation annotation (Matsuno style) ===")
    print(" ", partial.render(pattern.parameters))
    print()

    print("=== Misuses the type checker prevents ===")
    attempts = [
        ("partial binding", partial),
        ("risk out of range (250%)",
         Binding.of(system="ACME", hazards=["overrun"],
                    residual_risk=250)),
        ("wrong type for system",
         Binding.of(system=42, hazards=["overrun"], residual_risk=10)),
        ("empty hazard list",
         Binding.of(system="ACME", hazards=[], residual_risk=10)),
    ]
    for label, binding in attempts:
        try:
            pattern.instantiate(binding)
            print(f"  {label}: ACCEPTED (unexpected!)")
        except InstantiationError as error:
            message = str(error)
            if len(message) > 60:
                message = message[:57] + "..."
            print(f"  {label}: rejected — {message}")
    print()

    print("=== A correct instantiation ===")
    argument = pattern.instantiate(Binding.of(
        system="ACME light-rail brake",
        hazards=["overrun", "fire", "door-trap"],
        residual_risk=12,
    ))
    print(f"well-formed: {check(argument).well_formed}")
    print(render_tree(argument))

    print("=== The misuse type checking cannot catch (§III.L) ===")
    nonsense = pattern.instantiate(Binding.of(
        system="Railway hazards",   # Matsuno's own example of misuse
        hazards=["overrun"],
        residual_risk=12,
    ))
    print("accepted, and the result reads:")
    print(" ", nonsense.node("G_top").text)
    print("Well-typed, syntactically perfect — and meaningless.  "
          "Meaning is informal.")


if __name__ == "__main__":
    main()

# Evaluating sequence positions with a 5-state automaton.
#
# Instead of factoring k = 2^s * r, a small machine can read the base-2
# digits of k (least significant first) in parallel with the instruction
# signs and land on the answer.  The machine skips the trailing zeros of
# k, latches the instruction paired with the first 1-digit, lets the next
# digit fix r mod 4, and then never changes its mind.

from foldscope import (build_pf_evaluator, dfao_mutation_catalog, export_dot,
                       export_table, lsd2_digits, parse_instructions, pf_value,
                       run_dfao, tracked_input, verify_formula_vs_dfao,
                       OutputUndefined)

machine = build_pf_evaluator()
print(export_table(machine))

# Drive it by hand for k = 6 = 110 in binary, lsd-first digits (0, 1, 1),
# alongside the regular instructions (+1, +1, +1):
regular = parse_instructions("+;+")
print("digits of 6, width 3:", lsd2_digits(6, 3))
print("machine says P[6] =", run_dfao(machine, tracked_input(regular, 6, 3)))
print("formula says P[6] =", pf_value(regular, 6))

# The machine refuses to answer when the tracks stop too early.  For
# k = 4 = 100 the digit after the first 1 carries the decision, so three
# track positions are one short:
try:
    run_dfao(machine, tracked_input(regular, 4, 3))
except OutputUndefined as exc:
    print("too-short input:", exc)
print("with width 4:", run_dfao(machine, tracked_input(regular, 4, 4)))

# Once decided, extra padding never changes the answer:
print("with width 9:", run_dfao(machine, tracked_input(regular, 4, 9)))

# And the machine is checked wholesale against the closed formula over
# thousands of positions and every 13-bit instruction pattern:
outcome = verify_formula_vs_dfao(4096, 13, machine=machine)
print(f"equivalence sweep: passed={outcome.passed} ({outcome.cases_checked} "
      f"cases over {outcome.details['grid_patterns']} patterns)")

# The same sweep catches a broken machine, here the evaluator with one
# transition of its absorbing "+" state redirected, and names the least
# failing position k with the first instruction pattern that fails there:
label, broken = dfao_mutation_catalog(machine)[15]
outcome = verify_formula_vs_dfao(4096, 13, machine=broken)
ce = outcome.counterexample
print(f"mutant {label}: passed={outcome.passed}, instructions {ce['instructions']} "
      f"at k = {ce['k']}: formula {ce['formula']}, dfao {ce['dfao']}")

# Graphviz rendering, if you want to look at it:
print(export_dot(machine))

# Appearance functions: how deep must you read to have seen everything?
#
# For a length n, S(n) is the least k such that every distinct length-n
# factor of the sequence STARTS within the first k positions, and
# A(n) = S(n) + n - 1 is the prefix length that CONTAINS a copy of each.
# Both are computed by scanning first occurrences at starts 1..6*phi(n):
# every factor of every paper-folding sequence already starts there (the
# residue lemma in the foldscope.appearance docstring).

from foldscope import (appearance_report, distinct_factors, parse_instructions,
                       phi, predicted_a, predicted_s, report_to_json, s_value)

regular = parse_instructions("+;+")

# Length 1: the sequence opens 1 1 -1, so +1 first starts at 1 and -1 at 3.
for word, start in distinct_factors(regular, 1).items():
    print(f"factor {word.to_text()!r} first starts at {start}")
print("S(1) =", s_value(regular, 1))

# A full report for n = 7, including the factor that appears last:
report = appearance_report(regular, 7)
print(report_to_json(report))

# For n >= 7 the behavior snaps into a closed form.  With phi(n) the
# least power of two >= n, say phi(n) = 2^k:
#
#     S(n) = 4 * phi(n)   when f_{k+1} != f_{k+2}
#     S(n) = 6 * phi(n)   when f_{k+1} =  f_{k+2}
#
# The regular fold has equal instructions everywhere, so it always takes
# the 6*phi branch:
for n in (7, 8, 9, 100):
    print(f"regular n={n}: phi={phi(n)} scan={s_value(regular, n)} "
          f"closed form={predicted_s(regular, n)}")

# An alternating tail switches every comparison to the 4*phi branch:
wavy = parse_instructions("+;+-")
print("wavy n=8:", s_value(wavy, 8), "=", predicted_s(wavy, 8), "= 4*phi(8)")
print("wavy A(8):", predicted_a(wavy, 8))

# Because phi is constant on each power-of-two block, S is a staircase:
print("S(regular, 7..17):", [s_value(regular, n) for n in range(7, 18)])

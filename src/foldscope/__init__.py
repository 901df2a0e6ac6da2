"""Generalized paper-folding sequences and their appearance functions.

Generate sequences from arbitrary folding-instruction sets, evaluate
positions via the closed formula or an equivalent 5-state parallel-track
automaton, compute appearance functions by honest factor enumeration,
predict them in closed form, and re-establish the governing results by
bounded exhaustive search.
"""

from .appearance import (AmbiguousLastFactor, AppearanceReport, a_value,
                         appearance_report, distinct_factors, phi,
                         predicted_a, predicted_s, report_to_json, s_value,
                         scan_depth)
from .classifier import (ClassifierTable, check_reported_sets,
                         export_table_csv, synthesize_table, table_to_json)
from .dfao import (ALPHABET, OutputUndefined, ParallelDFAO, TrackedInput,
                   build_pf_evaluator, export_dot, export_table, lsd2_digits,
                   parse_table, replace_transition, run_dfao, tracked_input,
                   unreachable_states)
from .folding import (Factor, FoldingInstructions, InstructionExhausted,
                      SignWord, format_instructions, instruction,
                      make_instructions, negate, parse_instructions, pf_prefix,
                      pf_value, required_instruction_count)
from .verification import (VerificationOutcome, dfao_mutation_catalog,
                           run_all, verify_bounds, verify_corollary_tails,
                           verify_formula_vs_dfao,
                           verify_lemma_first_occurrence,
                           verify_lemma_last_factor,
                           verify_lemma_shared_start,
                           verify_monotonicity_and_symmetry, verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "AmbiguousLastFactor",
    "AppearanceReport",
    "ClassifierTable",
    "Factor",
    "FoldingInstructions",
    "InstructionExhausted",
    "OutputUndefined",
    "ParallelDFAO",
    "SignWord",
    "TrackedInput",
    "VerificationOutcome",
    "a_value",
    "appearance_report",
    "build_pf_evaluator",
    "check_reported_sets",
    "dfao_mutation_catalog",
    "distinct_factors",
    "export_dot",
    "export_table",
    "export_table_csv",
    "format_instructions",
    "instruction",
    "lsd2_digits",
    "make_instructions",
    "negate",
    "parse_instructions",
    "parse_table",
    "pf_prefix",
    "pf_value",
    "phi",
    "predicted_a",
    "predicted_s",
    "replace_transition",
    "report_to_json",
    "required_instruction_count",
    "run_all",
    "run_dfao",
    "s_value",
    "scan_depth",
    "synthesize_table",
    "table_to_json",
    "tracked_input",
    "unreachable_states",
    "verify_bounds",
    "verify_corollary_tails",
    "verify_formula_vs_dfao",
    "verify_lemma_first_occurrence",
    "verify_lemma_last_factor",
    "verify_lemma_shared_start",
    "verify_monotonicity_and_symmetry",
    "verify_theorem",
]

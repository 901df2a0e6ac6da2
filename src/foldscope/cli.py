"""Command-line front end.

One binary, subcommand style; every command is deterministic given its
flags and seed.  Exit codes are a stable contract: 0 on success, 1 when a
verification suite reports a failure, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classifier, verification
from .appearance import (appearance_report, phi, predicted_a, predicted_s,
                         report_to_json)
from .dfao import build_pf_evaluator, export_dot, export_table, run_dfao, tracked_input
from .folding import parse_instructions, pf_prefix, pf_value

# claim -> (the verification function, the verify flags it takes).  Only
# the flags given are forwarded, so every default is the function's own;
# --n-hi/--n-max is forwarded as n_max where the function names it so.
VERIFY_SUITES = {
    "formula-dfao": ("verify_formula_vs_dfao", ("k_bound", "depth", "samples", "seed")),
    "bounds": ("verify_bounds", ("n_lo", "n_hi", "samples", "seed")),
    "lemma1": ("verify_lemma_first_occurrence", ("n_lo", "n_hi")),
    "lemma2": ("verify_lemma_last_factor", ("n_lo", "n_hi")),
    "lemma3": ("verify_lemma_shared_start", ("n_lo", "n_hi")),
    "theorem": ("verify_theorem", ("n_lo", "n_hi", "mode", "samples", "seed")),
    "corollary-tails": ("verify_corollary_tails", ("n_hi",)),
    "monotonicity": ("verify_monotonicity_and_symmetry", ("depth", "n_max")),
    "all": ("run_all", ("n_max", "k_bound", "samples", "seed")),
}
CLAIMS = tuple(VERIFY_SUITES)
VERIFY_FLAGS = ("n_lo", "n_hi", "k_bound", "depth", "mode", "samples", "seed")

EXPORT_TARGETS = ("dfao-dot", "dfao-table", "classifier-csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldscope",
        description="Paper-folding sequences: generation, automaton "
                    "evaluation, appearance functions, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instr(p):
        p.add_argument("-f", "--instructions", required=True,
                       help="instruction set, e.g. '+;+' (regular fold), "
                            "'++-;+-' (prefix then periodic tail), '+-+-' (finite)")

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("seq", help="print a sequence prefix")
    add_instr(p)
    p.add_argument("-n", "--length", type=int, required=True, metavar="LEN")
    p.add_argument("--oeis", action="store_true",
                   help="render on the {0,1} alphabet (-1 becomes 0)")
    add_format(p)

    p = sub.add_parser("eval", help="evaluate one sequence position")
    add_instr(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--method", choices=("formula", "dfao", "both"),
                   default="formula")
    add_format(p)

    p = sub.add_parser("appearance", help="appearance data for one length")
    add_instr(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--predict", action="store_true",
                   help="also evaluate the closed form (n >= 7) and compare")
    add_format(p)

    p = sub.add_parser("predict", help="closed-form S and A values (n >= 7)")
    add_instr(p)
    p.add_argument("-n", type=int, required=True)
    add_format(p)

    p = sub.add_parser("verify", help="run brute-force verification suites")
    p.add_argument("--claim", choices=CLAIMS, required=True)
    p.add_argument("--n-lo", type=int)
    p.add_argument("--n-hi", "--n-max", dest="n_hi", type=int)
    p.add_argument("--k-bound", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--mode", choices=("exhaustive", "sampled"))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None, help="write the JSONL report here")

    p = sub.add_parser("classify", help="exact S table for one small length")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="canonical artifacts as text")
    p.add_argument("target", choices=EXPORT_TARGETS)
    p.add_argument("-n", type=int, default=None,
                   help="table length for classifier-csv (1..6)")
    p.add_argument("--out", default=None)

    return parser


def _probe_out(path: str) -> None:
    """Raise OSError before any work if `path` cannot be written; leave it as found."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_seq(args) -> int:
    f = parse_instructions(args.instructions)
    word = pf_prefix(f, args.length)
    if args.format == "json":
        values = [int(c) for c in word.to_oeis()] if args.oeis else list(word.values)
        _emit(json.dumps({"instructions": args.instructions.strip(),
                          "n": args.length,
                          "values": values,
                          "text": word.to_oeis() if args.oeis else word.to_text()},
                         sort_keys=True) + "\n", None)
    else:
        _emit((word.to_oeis() if args.oeis else word.to_text()) + "\n", None)
    return 0


def _cmd_eval(args) -> int:
    f = parse_instructions(args.instructions)
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    record = {"instructions": args.instructions.strip(), "k": args.k,
              "method": args.method}
    if args.method in ("formula", "both"):
        record["formula"] = pf_value(f, args.k)
    if args.method in ("dfao", "both"):
        record["dfao"] = run_dfao(build_pf_evaluator(), tracked_input(f, args.k))
    value = record.get("formula", record.get("dfao"))
    record["value"] = value
    agree = True
    if args.method == "both":
        agree = record["formula"] == record["dfao"]
        record["agree"] = agree
    if args.format == "json":
        _emit(json.dumps(record, sort_keys=True) + "\n", None)
    elif args.method == "both":
        _emit(f"formula={record['formula']} dfao={record['dfao']} "
              f"agree={'yes' if agree else 'NO'}\n", None)
    else:
        _emit(f"{value}\n", None)
    return 0 if agree else 1


def _cmd_appearance(args) -> int:
    f = parse_instructions(args.instructions)
    report = appearance_report(f, args.n)
    record = report_to_json(report)
    agree = True
    if args.predict:
        record["predicted_s"] = predicted_s(f, args.n)
        record["predicted_a"] = predicted_a(f, args.n)
        agree = record["predicted_s"] == report.s_value
        record["agree"] = agree
    if args.format == "json":
        _emit(json.dumps(record, sort_keys=True) + "\n", None)
    else:
        lines = [f"{key}: {record[key]}" for key in
                 ("n", "phi", "s", "a", "last_factor", "first_start",
                  "factor_count", "horizon")]
        if args.predict:
            lines.append(f"predicted_s: {record['predicted_s']}")
            lines.append(f"predicted_a: {record['predicted_a']}")
            lines.append(f"agree: {'yes' if agree else 'NO'}")
        _emit("\n".join(lines) + "\n", None)
    return 0 if agree else 1


def _cmd_predict(args) -> int:
    f = parse_instructions(args.instructions)
    record = {"instructions": args.instructions.strip(), "n": args.n,
              "phi": phi(args.n), "predicted_s": predicted_s(f, args.n),
              "predicted_a": predicted_a(f, args.n)}
    if args.format == "json":
        _emit(json.dumps(record, sort_keys=True) + "\n", None)
    else:
        _emit(f"predicted_s: {record['predicted_s']}\n"
              f"predicted_a: {record['predicted_a']}\n", None)
    return 0


def _cmd_verify(args) -> int:
    suite, takes = VERIFY_SUITES[args.claim]
    given = {flag: v for flag in VERIFY_FLAGS if (v := getattr(args, flag)) is not None}
    if "n_max" in takes and "n_hi" in given:
        given["n_max"] = given.pop("n_hi")
    refused = [f"--{flag.replace('_', '-')}" for flag in given if flag not in takes]
    if refused:
        raise ValueError(f"--claim {args.claim} does not take {', '.join(refused)}")
    # looked up at call time, so patched and traced suites see CLI runs
    result = getattr(verification, suite)(**given)
    outcomes = result if isinstance(result, list) else [result]
    _emit("".join(o.to_json() + "\n" for o in outcomes), args.out)
    return 0 if all(o.passed for o in outcomes) else 1


def _cmd_classify(args) -> int:
    if not 1 <= args.n <= 6:
        raise ValueError(f"classification tables cover n in 1..6 (got n={args.n}); "
                         f"use 'appearance --predict' or 'predict' for n >= 7")
    table = classifier.synthesize_table(args.n)
    if args.format == "csv":
        _emit(classifier.export_table_csv(table), args.out)
    elif args.format == "json":
        _emit(json.dumps(classifier.table_to_json(table), sort_keys=True) + "\n",
              args.out)
    else:
        _emit(classifier.table_to_text(table), args.out)
    return 0


def _cmd_export(args) -> int:
    if args.target == "dfao-dot":
        _emit(export_dot(build_pf_evaluator()), args.out)
    elif args.target == "dfao-table":
        _emit(export_table(build_pf_evaluator()), args.out)
    else:
        if args.n is None:
            raise ValueError("classifier-csv needs -n (1..6)")
        _emit(classifier.export_table_csv(classifier.synthesize_table(args.n)),
              args.out)
    return 0


_HANDLERS = {
    "seq": _cmd_seq,
    "eval": _cmd_eval,
    "appearance": _cmd_appearance,
    "predict": _cmd_predict,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _probe_out(args.out)
        return _HANDLERS[args.command](args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

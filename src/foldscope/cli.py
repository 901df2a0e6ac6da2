"""Command-line front end.

One binary, subcommand style; every command is deterministic given its
flags and seed.  Exit codes are a stable contract: 0 on success, 1 when a
verification suite or an evidence pin reports a failure, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
from array import array

from . import classifier, verification
from .appearance import (appearance_report, phi, predicted_a, predicted_s,
                         report_to_json)
from .dfao import build_pf_evaluator, export_dot, export_table, run_dfao, tracked_input
from .folding import parse_instructions, pf_prefix, pf_value
from .verification import NON_QUALIFYING_TAILS, dfao_mutation_catalog

VERIFY_FLAGS = ("n_lo", "n_hi", "k_bound", "depth", "mode", "samples", "seed")
# claim -> (the verification function, the verify flags it takes), the
# flags read once off the function's own signature.  Only the flags given
# are forwarded, so every default is the function's own; --n-hi/--n-max
# is forwarded as n_max where the function names it so.
VERIFY_SUITES = {
    claim: (name, tuple(flag for flag in
                        inspect.signature(getattr(verification, name)).parameters
                        if flag in VERIFY_FLAGS + ("n_max",)))
    for claim, name in {
        "formula-dfao": "verify_formula_vs_dfao", "bounds": "verify_bounds",
        "lemma1": "verify_lemma_first_occurrence", "lemma2": "verify_lemma_last_factor",
        "lemma3": "verify_lemma_shared_start", "theorem": "verify_theorem",
        "corollary-tails": "verify_corollary_tails",
        "monotonicity": "verify_monotonicity_and_symmetry", "all": "run_all",
    }.items()}
CLAIMS = tuple(VERIFY_SUITES)

LEMMAS = ("lemma1", "lemma2", "lemma3")


def _outcomes(claims, **given) -> list:
    """What `verify --claim C` reports for each C of `claims`; the suites are
    looked up at call time, so patched and traced suites see CLI runs."""
    results = [getattr(verification, VERIFY_SUITES[c][0])(**given) for c in claims]
    return [o for r in results for o in (r if isinstance(r, list) else [r])]


def _jsonl(outcomes) -> str:
    return "".join(o.to_json() + "\n" for o in outcomes)


def _json_line(record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


# name -> (producer, sha256 of its UTF-8 output).  Each producer re-derives one
# slice of the paper's results; `foldscope evidence` runs each from cold caches.
EVIDENCE = {
    "verify-all": (lambda: _jsonl(_outcomes(["all"], n_max=64)),
                   "f2708be8d82435b11e8b08364c6fa1a2c3ac93aacde2d193489bb57ff9bf767c"),
    # `verify --claim all --n-max 256`: the sampled bounds at p = 128 and 256
    # read keys the exhaustive theorem's grids hold too
    "verify-all-256": (lambda: _jsonl(_outcomes(["all"], n_max=256)),
                       "56e5de486ae280236575ab53f2ca8cf7fd8df6682ab2f9effa10b34e48508f78"),
    "classify": (lambda: "".join(_json_line(classifier.table_to_json(
        classifier.synthesize_table(n))) for n in range(1, 7)),
                 "6c8968663265b36c8d8d9128586686c965ef176b2417541e25c1b16d5dc3bea5"),
    # bounds and theorem at n = 65..128 and formula-dfao at depth 16, all sampled
    "sampled": (lambda: _jsonl(_outcomes(["bounds"], n_lo=65, n_hi=128)
                               + _outcomes(["theorem"], n_lo=65, n_hi=128, mode="sampled")
                               + _outcomes(["formula-dfao"], depth=16, samples=50)),
                "707feabdd0bce7bbce9d70b59a99bbcbeffc5e75cea24d0d654b661f17994e68"),
    # n = 65..128: windows of two 64-sign blocks
    "lemmas": (lambda: _jsonl(_outcomes(LEMMAS, n_lo=65, n_hi=128)),
               "11bb42968a5ea68ea8af707f7dedf2d209a6165adf034e762fd45e866ddce266"),
    # the evaluator passes and every catalog mutant fails, in three sweeps
    "formula-dfao-battery": (lambda: _jsonl(
        verification.verify_formula_vs_dfao(*args, machine=m, **kw)
        for m in [build_pf_evaluator()] + [mutant for _, mutant in dfao_mutation_catalog()]
        for args, kw in (((256, 9), {}), ((1024, 14), {"samples": 10}), ((64, 7), {}))),
        "72b1b0e1713206b3510e8b2b2a455cd4b3f05cc256bc503384563d7cfb7d3f91"),
    # per-instance reports of the regular, alternating and catalog tails, n = 1..128
    "appearance": (lambda: "".join(
        _json_line(report_to_json(appearance_report(parse_instructions(text), n)))
        for text in ("+;+", "+;+-") + NON_QUALIFYING_TAILS for n in range(1, 129)),
        "59c5751a46ca4252c2c97f707a08114e4a971a25ad258c249d74e26679167a7d"),
    # the exhaustive paths at n = 129..256, one shared depth-12 band
    "depth-12": (lambda: _jsonl(_outcomes(("theorem",) + LEMMAS, n_lo=129, n_hi=256)),
                 "3c92f30a7070e152b381c72264f268632af25ec4c0f24b9c3051ad9f7241278f"),
}


EXPORT_TARGETS = ("dfao-dot", "dfao-table")

# Per-instance size caps, refused with exit 2 before any work.  The
# appearance scan keeps about 4n distinct factors of n bytes each, so its
# memory grows as n^2: n = 4096 took 0.34 s and 96 MB peak RSS, n = 8192
# 0.76 s and 295 MB.  seq -n 2^22 takes 0.35 s and 81 MB as text and
# 1.1 s and 139 MB as json, with or without --oeis (one process each,
# median of five, 2-core Xeon).
APPEARANCE_N_MAX = 1 << 12
SEQ_LENGTH_MAX = 1 << 22
# the digits of `seq --oeis` as the bytes 0 and 1, read by array("b")
_OEIS_BITS = bytes.maketrans(b"01", b"\x00\x01")


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
    p.add_argument("--out", default=None)

    sub.add_parser("evidence", help="recompute and check every evidence pin")

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
    if args.length > SEQ_LENGTH_MAX:
        raise ValueError(f"seq length {args.length} exceeds the cap of {SEQ_LENGTH_MAX}")
    f = parse_instructions(args.instructions)
    word = pf_prefix(f, args.length)
    text = word.to_oeis() if args.oeis else word.to_text()
    if args.format == "json":
        values = (array("b", text.encode().translate(_OEIS_BITS)).tolist() if args.oeis
                  else list(word.values))
        _emit(_json_line({"instructions": args.instructions.strip(),
                          "n": args.length,
                          "values": values,
                          "text": text}), None)
    else:
        _emit(text + "\n", None)
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
        _emit(_json_line(record), None)
    elif args.method == "both":
        _emit(f"formula={record['formula']} dfao={record['dfao']} "
              f"agree={'yes' if agree else 'NO'}\n", None)
    else:
        _emit(f"{value}\n", None)
    return 0 if agree else 1


def _cmd_appearance(args) -> int:
    if args.n > APPEARANCE_N_MAX:
        raise ValueError(f"appearance n={args.n} exceeds the cap of {APPEARANCE_N_MAX}")
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
        _emit(_json_line(record), None)
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
        _emit(_json_line(record), None)
    else:
        _emit(f"predicted_s: {record['predicted_s']}\n"
              f"predicted_a: {record['predicted_a']}\n", None)
    return 0


def _cmd_verify(args) -> int:
    takes = VERIFY_SUITES[args.claim][1]
    given = {flag: v for flag in VERIFY_FLAGS if (v := getattr(args, flag)) is not None}
    if "n_max" in takes and "n_hi" in given:
        given["n_max"] = given.pop("n_hi")
    refused = [f"--{flag.replace('_', '-')}" for flag in given if flag not in takes]
    if refused:
        raise ValueError(f"--claim {args.claim} does not take {', '.join(refused)}")
    outcomes = _outcomes([args.claim], **given)
    _emit(_jsonl(outcomes), args.out)
    return 0 if all(o.passed for o in outcomes) else 1


def _cmd_classify(args) -> int:
    if not 1 <= args.n <= 6:
        raise ValueError(f"classification tables cover n in 1..6 (got n={args.n}); "
                         f"use 'appearance --predict' or 'predict' for n >= 7")
    table = classifier.synthesize_table(args.n)
    if args.format == "csv":
        _emit(classifier.export_table_csv(table), args.out)
    elif args.format == "json":
        _emit(_json_line(classifier.table_to_json(table)), args.out)
    else:
        _emit(classifier.table_to_text(table), args.out)
    return 0


def _cmd_export(args) -> int:
    export = export_dot if args.target == "dfao-dot" else export_table
    _emit(export(build_pf_evaluator()), args.out)
    return 0


def _cmd_evidence(args) -> int:
    code = 0
    for name, (produce, pinned) in EVIDENCE.items():
        verification.clear_caches()  # as if each row ran in a fresh process
        digest = hashlib.sha256(produce().encode()).hexdigest()
        _emit(_json_line({"name": name, "sha256": digest, "ok": digest == pinned}), None)
        if digest != pinned:
            print(f"evidence {name}: got {digest}, pinned {pinned}", file=sys.stderr)
            code = 1
    return code


_HANDLERS = {
    "seq": _cmd_seq,
    "eval": _cmd_eval,
    "appearance": _cmd_appearance,
    "predict": _cmd_predict,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "export": _cmd_export,
    "evidence": _cmd_evidence,
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

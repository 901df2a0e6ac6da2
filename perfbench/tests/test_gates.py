"""The benchmark's correctness gates fire on corrupted results.

Every corrupted value is built here from a correct one; nothing in the
library is patched.
"""

import dataclasses
import hashlib
import itertools
import json
import re

import pytest

from foldscope import appearance, classifier, folding, verification
from foldscope.cli import main as cli_main

import harness
import layers
import speed
import workloads
from workloads import Op


def _outcome(**changes):
    base = verification.VerificationOutcome(
        claim_id="lemma1", n_range=(7, 8), instruction_depth=7, mode="exhaustive",
        passed=True, cases_checked=256)
    return dataclasses.replace(base, **changes)


def test_digest_covers_the_cli_jsonl_bytes(tmp_path):
    out = tmp_path / "report.jsonl"
    assert cli_main(["verify", "--claim", "lemma1", "--n-lo", "7", "--n-hi", "8",
                     "--out", str(out)]) == 0
    outcome = verification.verify_lemma_first_occurrence(7, 8)
    assert workloads.outcomes_digest([outcome]) == hashlib.sha256(out.read_bytes()).hexdigest()


def test_verify_all_gate_fires_on_a_corrupted_outcome():
    good = [_outcome(), _outcome(claim_id="lemma2")]
    digest = workloads.outcomes_digest(good)
    assert workloads.check_verify_all(good, digest) == (512, None)

    corrupted = [good[0], dataclasses.replace(good[1], cases_checked=255)]
    cases, error = workloads.check_verify_all(corrupted, digest)
    assert "digest" in error

    failing = [good[0], _outcome(passed=False, counterexample={"n": 7})]
    cases, error = workloads.check_verify_all(failing, digest)
    assert "claims failed" in error


def test_verify_all_gate_expects_the_seed_digest():
    _, error = workloads.check_verify_all([_outcome()])
    assert workloads.VERIFY_ALL_DIGEST in error


def test_automaton_gate_checks_pass_and_case_count():
    good = _outcome(claim_id="formula-dfao", cases_checked=workloads.AUTOMATON_CASES)
    assert workloads.check_automaton(good) == (workloads.AUTOMATON_CASES, None)
    assert workloads.check_automaton(dataclasses.replace(good, cases_checked=1))[1]
    bad = dataclasses.replace(good, passed=False, counterexample={"k": 3})
    assert workloads.check_automaton(bad)[1]


def test_sampled_gate_checks_mode_seed_and_count():
    seed = verification.DEFAULT_SEED
    good = _outcome(claim_id="bounds", n_range=(65, 128), mode="sampled", seed=seed,
                    cases_checked=workloads.SAMPLED_CASES_AT_DEFAULT_SEED)
    assert workloads.check_sampled(good, seed)[1] is None
    assert workloads.check_sampled(dataclasses.replace(good, cases_checked=12_223), seed)[1]
    assert workloads.check_sampled(dataclasses.replace(good, seed=7), seed)[1]
    assert workloads.check_sampled(dataclasses.replace(good, mode="exhaustive"), seed)[1]
    other = dataclasses.replace(good, seed=5, cases_checked=12_100)
    assert workloads.check_sampled(other, 5)[1] is None
    assert workloads.check_sampled(dataclasses.replace(other, cases_checked=10), 5)[1]


def _query(kind, text, **params):
    f = folding.parse_instructions(text)
    head = f.prefix
    tail = f.tail_period
    return {"kind": kind, "head": head, "tail": tail, "text": text, **params}


@pytest.mark.parametrize("n", [2, 6, 9, 100])
def test_appearance_oracle(n):
    q = _query("appearance", "+-;+--", n=n)
    report = appearance.appearance_report(folding.parse_instructions(q["text"]), n)
    assert workloads.check_query(q, report) == (1, None)
    s = 7 * report.phi_n  # outside every published set and both branches
    wrong = dataclasses.replace(report, s_value=s, a_value=s + n - 1)
    assert workloads.check_query(q, wrong)[1]


def test_prefix_oracle():
    q = _query("prefix", "-;+-+", length=1000)
    text = folding.pf_prefix(folding.parse_instructions(q["text"]), 1000).to_text()
    assert workloads.check_query(q, text) == (1, None)
    flipped = text[:499] + ("+" if text[499] == "-" else "-") + text[500:]
    assert workloads.check_query(q, flipped)[1]
    assert workloads.check_query(q, text[:-1])[1]


def test_dfao_and_predict_oracles():
    q = _query("dfao", "+;-", k=3 << 30)
    v = folding.pf_value(folding.parse_instructions(q["text"]), q["k"])
    assert workloads.check_query(q, (v, v)) == (1, None)
    assert workloads.check_query(q, (v, -v))[1]

    q = _query("predict", "++;-+", n=1000)
    s = appearance.predicted_s(folding.parse_instructions(q["text"]), 1000)
    assert workloads.check_query(q, s) == (1, None)
    assert workloads.check_query(q, 6 * 1024 if s == 4 * 1024 else 4 * 1024)[1]


def test_classify_oracle():
    q = _query("classify", "+;+", n=3)
    table = classifier.synthesize_table(3)
    assert workloads.check_query(q, table) == (1, None)
    wrong = dataclasses.replace(table, value_set=(14, 16, 22))
    assert workloads.check_query(q, wrong)[1]


def test_own_oracles_agree_with_the_library_on_seeded_queries():
    for q in workloads.make_queries(seed=3, count=300):
        f = folding.parse_instructions(q["text"])
        assert (f.prefix, f.tail_period) == (q["head"], q["tail"])
        if q["kind"] == "prefix":
            assert workloads.own_prefix_text(q["head"], q["tail"], q["length"]) == \
                folding.pf_prefix(f, q["length"]).to_text()
        elif q["kind"] == "predict":
            assert workloads.own_predicted_s(q["head"], q["tail"], q["n"]) == \
                appearance.predicted_s(f, q["n"])


def test_queries_depend_only_on_the_seed():
    assert workloads.make_queries(11, 50) == workloads.make_queries(11, 50)
    assert workloads.make_queries(11, 50) != workloads.make_queries(12, 50)


class _FixedClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        self.t += 1.0
        return self.t

    def scaled(self, a, b):
        return b - a


def test_failures_count_in_the_unit():
    def boom():
        raise ZeroDivisionError("bad")

    ops = [
        Op("ok", lambda: 1, lambda r: (1, None)),
        Op("wrong", lambda: 2, lambda r: (1, "value 2 is wrong")),
        Op("raises", boom, lambda r: (1, None)),
    ]
    unit = harness.run_unit(ops, _FixedClock())
    assert unit.failed == 2
    assert unit.cases == 2
    assert len(unit.latencies) == 3
    assert "value 2 is wrong" in unit.errors[0]
    assert "ZeroDivisionError" in unit.errors[1]


def test_per_layer_metrics_match_benchmark_json():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)
    names = set(layers.layer_metrics([], {}, 1.0))
    names |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in definition["per_layer"]} == names


def test_traced_counts_must_repeat(tmp_path):
    lengths = itertools.count(10)
    f = folding.parse_instructions("+;+-")
    steady = [Op("prefix", lambda: folding.pf_prefix(f, 50), lambda r: (1, None))]
    drifting = [Op("prefix", lambda: folding.pf_prefix(f, next(lengths)),
                   lambda r: (1, None))]
    with speed.SpeedClock() as clock:
        metrics, units, mismatches = harness.per_layer(
            "steady", 1, 0.01, steady, clock, trace_dir=tmp_path)
        assert mismatches == []
        assert metrics["folding.positions"] == 50
        assert metrics["folding.pf_prefix.calls"] == 1
        _, _, mismatches = harness.per_layer(
            "drifting", 1, 0.01, drifting, clock, trace_dir=tmp_path)
    assert any(m.startswith("folding.positions") for m in mismatches)
    assert (tmp_path / "steady-seed1.jsonl").read_text().count("folding.pf_prefix") == 2


def test_benchmark_json_follows_the_naming_rules():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in definition["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in definition[section]:
            assert unit.fullmatch(metric["unit"]), metric
            names.append(metric["name"])
    assert all(name.fullmatch(n) for n in names), [n for n in names if not name.fullmatch(n)]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in definition["end_to_end"])

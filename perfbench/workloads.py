"""The benchmark's four workloads: their inputs, library calls and checks.

A workload is a list of operations, each one public library call with a
check of its result.  One repetition of the list is a unit; the runner
times each call and repeats the unit for the run's length.  A check either
compares with values recorded from the seed code (the verify-all digest,
the sweeps' case counts) or recomputes the expected answer here from the
inputs the workload made, never with the library's own helpers.  Inputs
depend only on the seed, so two runs with one seed do the same work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from foldscope import appearance, classifier, dfao, folding, verification

# sha256 of the seed code's `foldscope verify --claim all --n-max 64` JSONL
VERIFY_ALL_DIGEST = "f2708be8d82435b11e8b08364c6fa1a2c3ac93aacde2d193489bb57ff9bf767c"
# cases the seed code checks in verify_formula_vs_dfao(1 << 16, 16, samples=100)
AUTOMATON_CASES = 275_243_008
# cases per suite the seed code checks in the sampled sweep at DEFAULT_SEED
SAMPLED_CASES_AT_DEFAULT_SEED = 12_224
SAMPLED_N = (65, 128)
SAMPLED_SAMPLES = 200

# The published value sets of S_f(n) for n = 1..6.
PUBLISHED_S_SETS = {
    1: (2, 3),
    2: (4, 5, 6),
    3: (14, 16, 22, 24),
    4: (14, 16, 22, 24),
    5: (28, 32, 44, 48),
    6: (31, 32, 47, 48),
}

QUERIES_PER_UNIT = 2000
# The per-instance commands of the single-queries stream.  No record of
# how often each is used exists, so each gets an equal share; the mix is
# unverified against real use.  The run prints which kinds make up the
# query_p99_ms tail.
QUERY_KINDS = ("appearance", "prefix", "dfao", "predict", "classify")


@dataclass(frozen=True)
class Op:
    """One timed library call.

    `check(result)` returns (cases checked, error text or None).  With
    `cold` set, the library caches are cleared before the call, untimed.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, Optional[str]]]
    cold: bool = False


# ---------------------------------------------------------------------------
# independent oracles


def _signs_text(signs) -> str:
    return "".join("+" if v == 1 else "-" for v in signs)


def own_instruction(head: tuple, tail: tuple, s: int) -> int:
    """f_s of the instruction set head followed by tail repeated forever."""
    return head[s] if s < len(head) else tail[(s - len(head)) % len(tail)]


def own_value(head: tuple, tail: tuple, k: int) -> int:
    """P_f[k] from k = 2^s * r with r odd: f_s if r = 1 mod 4, else -f_s."""
    s = (k & -k).bit_length() - 1
    v = own_instruction(head, tail, s)
    return v if (k >> s) & 3 == 1 else -v


def own_prefix_text(head: tuple, tail: tuple, length: int) -> str:
    """P_f[1:length] as '+'/'-' text, computed with numpy."""
    k = np.arange(1, length + 1, dtype=np.int64)
    s = np.log2(k & -k).astype(np.int64)
    f = np.array([own_instruction(head, tail, t) for t in range(int(s.max()) + 1)],
                 dtype=np.int8)
    v = np.where((k >> s) & 3 == 1, f[s], -f[s])
    return np.where(v > 0, ord("+"), ord("-")).astype(np.uint8).tobytes().decode()


def own_phi(n: int) -> int:
    return 1 << (n - 1).bit_length()


def own_predicted_s(head: tuple, tail: tuple, n: int) -> int:
    """S_f(n) for n >= 7 as the paper states it: 4*phi(n) when
    f_{k+1} != f_{k+2} for phi(n) = 2^k, else 6*phi(n)."""
    p = own_phi(n)
    k = p.bit_length() - 1
    same = own_instruction(head, tail, k + 1) == own_instruction(head, tail, k + 2)
    return 6 * p if same else 4 * p


def outcomes_digest(outcomes) -> str:
    """sha256 of the outcomes as the CLI writes them, one JSON line each."""
    text = "".join(o.to_json() + "\n" for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks


def check_verify_all(outcomes, digest: str = VERIFY_ALL_DIGEST) -> tuple[int, Optional[str]]:
    cases = sum(o.cases_checked for o in outcomes)
    failed = [o.claim_id for o in outcomes if not o.passed]
    if failed:
        return cases, f"claims failed: {failed}"
    got = outcomes_digest(outcomes)
    if got != digest:
        return cases, f"outcome digest {got} != {digest}"
    return cases, None


def check_automaton(outcome) -> tuple[int, Optional[str]]:
    if not outcome.passed:
        return outcome.cases_checked, f"counterexample {outcome.counterexample}"
    if outcome.cases_checked != AUTOMATON_CASES:
        return outcome.cases_checked, (
            f"{outcome.cases_checked} cases checked, expected {AUTOMATON_CASES}")
    return outcome.cases_checked, None


def check_sampled(outcome, seed: int) -> tuple[int, Optional[str]]:
    cases = outcome.cases_checked
    lo, hi = SAMPLED_N
    if not outcome.passed:
        return cases, f"{outcome.claim_id}: counterexample {outcome.counterexample}"
    if (outcome.mode, outcome.seed, tuple(outcome.n_range)) != ("sampled", seed, (lo, hi)):
        return cases, (f"{outcome.claim_id}: ran {outcome.mode} over "
                       f"{outcome.n_range} at seed {outcome.seed}")
    if seed == verification.DEFAULT_SEED and cases != SAMPLED_CASES_AT_DEFAULT_SEED:
        return cases, (f"{outcome.claim_id}: {cases} cases, expected "
                       f"{SAMPLED_CASES_AT_DEFAULT_SEED}")
    per_n = (4, SAMPLED_SAMPLES + 4)
    n_count = hi - lo + 1
    if not per_n[0] * n_count <= cases <= per_n[1] * n_count:
        return cases, f"{outcome.claim_id}: {cases} cases is outside the sample size"
    return cases, None


def check_query(query: dict, result) -> tuple[int, Optional[str]]:
    """Compare one single-queries result with the oracle for its kind."""
    head, tail, kind = query["head"], query["tail"], query["kind"]
    if kind == "appearance":
        n = query["n"]
        r = result
        if r.n != n or r.a_value != r.s_value + n - 1:
            return 1, f"inconsistent report {r}"
        if n >= 7:
            want = own_predicted_s(head, tail, n)
            if r.s_value != want:
                return 1, f"s_value {r.s_value} != predicted {want} at n={n}"
        elif r.s_value not in PUBLISHED_S_SETS[n]:
            return 1, f"s_value {r.s_value} not in {PUBLISHED_S_SETS[n]} at n={n}"
        return 1, None
    if kind == "prefix":
        want = own_prefix_text(head, tail, query["length"])
        if result != want:
            return 1, f"prefix of length {query['length']} differs from the formula"
        return 1, None
    if kind == "dfao":
        want = own_value(head, tail, query["k"])
        if tuple(result) != (want, want):
            return 1, f"(pf_value, run_dfao) = {result} at k={query['k']}, want {want}"
        return 1, None
    if kind == "predict":
        want = own_predicted_s(head, tail, query["n"])
        if result != want:
            return 1, f"predicted_s {result} != {want} at n={query['n']}"
        return 1, None
    if kind == "classify":
        want = PUBLISHED_S_SETS[query["n"]]
        if tuple(result.value_set) != want:
            return 1, f"value set {result.value_set} != {want} at n={query['n']}"
        return 1, None
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------------------
# workloads


def _log_uniform(lo: float, hi: float, u: float) -> int:
    """The integer nearest lo * (hi/lo)**u, for u in [0, 1)."""
    return min(int(hi), max(int(lo), round(lo * (hi / lo) ** u)))


def make_queries(seed: int, count: int = QUERIES_PER_UNIT) -> list[dict]:
    """Seeded single-queries inputs: an instruction set and one command each.

    Each kind gets an equal share of the queries, and its size parameter
    is drawn stratified (one draw in each of m equal slices of the range),
    so the seed changes the instruction sets, sizes and order but hardly
    the total work.
    """
    rng = random.Random(seed)
    m = count // len(QUERY_KINDS)
    queries = []
    for kind in QUERY_KINDS:
        for i in range(m):
            u = (i + rng.random()) / m
            head = tuple(rng.choice((-1, 1)) for _ in range(rng.randint(0, 6)))
            tail = tuple(rng.choice((-1, 1)) for _ in range(rng.randint(1, 4)))
            q = {"kind": kind, "head": head, "tail": tail,
                 "text": _signs_text(head) + ";" + _signs_text(tail)}
            if kind == "appearance":
                q["n"] = _log_uniform(1, 256, u)
            elif kind == "prefix":
                q["length"] = _log_uniform(1, 1 << 14, u)
            elif kind == "dfao":
                q["k"] = _log_uniform(1, 1 << 40, u)
            elif kind == "predict":
                q["n"] = _log_uniform(7, 1 << 20, u)
            else:
                q["n"] = 1 + int(6 * u)
            queries.append(q)
    rng.shuffle(queries)
    return queries


def _query_op(q: dict, evaluator) -> Op:
    text, kind = q["text"], q["kind"]
    parse = folding.parse_instructions
    if kind == "appearance":
        call = lambda: appearance.appearance_report(parse(text), q["n"])
    elif kind == "prefix":
        call = lambda: folding.pf_prefix(parse(text), q["length"]).to_text()
    elif kind == "dfao":
        def call():
            f = parse(text)
            return (folding.pf_value(f, q["k"]),
                    dfao.run_dfao(evaluator, dfao.tracked_input(f, q["k"])))
    elif kind == "predict":
        call = lambda: appearance.predicted_s(parse(text), q["n"])
    else:
        call = lambda: classifier.synthesize_table(q["n"])
    return Op(kind, call, lambda result: check_query(q, result), cold=kind == "classify")


def build(name: str, seed: int) -> list[Op]:
    """The operations of one unit of workload `name` at `seed`."""
    v = verification
    if name == "verify-all":
        return [Op("run_all", lambda: v.run_all(n_max=64), check_verify_all, cold=True)]
    if name == "automaton-sweep":
        return [Op("formula-dfao",
                   lambda: v.verify_formula_vs_dfao(1 << 16, 16, samples=100),
                   check_automaton, cold=True)]
    if name == "sampled-sweep":
        lo, hi = SAMPLED_N
        return [
            Op("bounds", lambda: v.verify_bounds(lo, hi, samples=SAMPLED_SAMPLES, seed=seed),
               lambda o: check_sampled(o, seed), cold=True),
            Op("theorem", lambda: v.verify_theorem(lo, hi, "sampled",
                                                   samples=SAMPLED_SAMPLES, seed=seed),
               lambda o: check_sampled(o, seed)),
        ]
    if name == "single-queries":
        evaluator = dfao.build_pf_evaluator()
        return [_query_op(q, evaluator) for q in make_queries(seed)]
    raise ValueError(f"unknown workload {name!r}")

import contextlib
import hashlib
import io
import json
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from foldscope import _batch, appearance, cli, verification
from foldscope.cli import (APPEARANCE_N_MAX, CLAIMS, EXPORT_TARGETS, SEQ_LENGTH_MAX,
                           VERIFY_SUITES, main)
from foldscope.folding import SignWord


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- seq --------------------------------------------------------------------

def test_seq_regular(capsys):
    code, out, _ = run(capsys, "seq", "-f", "+;+", "-n", "8")
    assert code == 0 and out == "++-++--+\n"


def test_seq_oeis(capsys):
    code, out, _ = run(capsys, "seq", "-f", "+;+", "-n", "8", "--oeis")
    assert code == 0 and out == "11011001\n"


# sha256 of the stdout of `seq -f '+-;+--' -n 65536` in each of its forms
SEQ_STDOUT_SHA256 = {
    (): "d5176ff3db248cfc8cf9caf1c174a416d40c4f735c97f8ffc2231c0cfb89c2b8",
    ("--format", "json"): "a1d8ff3ddc0fc690906ba8df9e00e8204c052282e55427c50ed61e69dcd4c318",
    ("--oeis",): "009f6a59e645f42e9258fb2ab5955afcfb1531d27ae066693fdf4eade92e6afb",
    ("--oeis", "--format", "json"):
        "4cf6e71efbd4f91857a26d20099d3d6b1c1c5d0fd989cc8a236b1cacbb881cdb",
}


@pytest.mark.parametrize("form", SEQ_STDOUT_SHA256)
def test_seq_stdout_bytes_are_pinned(capsys, form):
    code, out, err = run(capsys, "seq", "-f", "+-;+--", "-n", "65536", *form)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SEQ_STDOUT_SHA256[form]


def test_seq_exhaustion_names_instruction(capsys):
    code, _, err = run(capsys, "seq", "-f", "+-", "-n", "8")
    assert code == 2 and "f_2" in err


def test_seq_bad_syntax(capsys):
    code, _, err = run(capsys, "seq", "-f", "+x", "-n", "4")
    assert code == 2 and "error:" in err


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "-f", "+;+", "-n", "4", "--format", "json")
    record = json.loads(out)
    assert code == 0
    assert record == {"instructions": "+;+", "n": 4,
                      "values": [1, 1, -1, 1], "text": "++-+"}


def test_seq_json_oeis_values(capsys):
    _, out, _ = run(capsys, "seq", "-f", "+;+", "-n", "4", "--oeis",
                    "--format", "json")
    assert json.loads(out)["values"] == [1, 1, 0, 1]


# --- eval -------------------------------------------------------------------

def test_eval_formula(capsys):
    code, out, _ = run(capsys, "eval", "-f", "+;+", "-k", "6")
    assert code == 0 and out == "-1\n"


def test_eval_both(capsys):
    code, out, _ = run(capsys, "eval", "-f", "+;+", "-k", "6", "--method", "both")
    assert code == 0 and "agree=yes" in out


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "-f", "++-;+-", "-k", "12",
                       "--method", "both", "--format", "json")
    record = json.loads(out)
    assert code == 0 and record["agree"] is True
    assert record["formula"] == record["dfao"] == record["value"]


def test_eval_rejects_zero(capsys):
    code, _, err = run(capsys, "eval", "-f", "+;+", "-k", "0")
    assert code == 2


# --- appearance and predict -------------------------------------------------

def test_appearance_predict_agrees(capsys):
    code, out, _ = run(capsys, "appearance", "-f", "+;+", "-n", "7", "--predict")
    assert code == 0
    assert "s: 48" in out and "a: 54" in out
    assert "predicted_s: 48" in out and "agree: yes" in out


def test_appearance_alt_tail(capsys):
    code, out, _ = run(capsys, "appearance", "-f", "+;+-", "-n", "8", "--predict")
    assert code == 0 and "s: 32" in out and "agree: yes" in out


def test_appearance_small_n(capsys):
    code, out, _ = run(capsys, "appearance", "-f", "+;+", "-n", "3")
    assert code == 0 and "s: 22" in out


def test_appearance_finite_instructions_cover_the_scan(capsys):
    # n = 2 reads positions up to 6*phi(2) + 1 = 13: four instructions
    # (positions up to 15) answer, three (up to 7) run out
    code, out, _ = run(capsys, "appearance", "-f", "++++", "-n", "2")
    assert code == 0 and "s: 6" in out and "horizon: 12" in out
    code, _, err = run(capsys, "appearance", "-f", "+++", "-n", "2")
    assert code == 2 and "f_3" in err


def test_appearance_json_schema(capsys):
    code, out, _ = run(capsys, "appearance", "-f", "+;+", "-n", "9",
                       "--predict", "--format", "json")
    record = json.loads(out)
    assert code == 0
    assert set(record) == {"n", "phi", "s", "a", "last_factor", "first_start",
                           "factor_count", "horizon", "predicted_s",
                           "predicted_a", "agree"}


def test_appearance_predict_small_n_is_usage_error(capsys):
    code, _, err = run(capsys, "appearance", "-f", "+;+", "-n", "3", "--predict")
    assert code == 2 and "n >= 7" in err


def test_predict(capsys):
    code, out, _ = run(capsys, "predict", "-f", "+;+-", "-n", "100",
                       "--format", "json")
    record = json.loads(out)
    assert code == 0
    assert record["predicted_s"] == 512 and record["predicted_a"] == 611


def test_predict_small_n(capsys):
    code, _, err = run(capsys, "predict", "-f", "+;+", "-n", "6")
    assert code == 2


# --- verify -----------------------------------------------------------------

def test_verify_theorem_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "theorem",
                       "--n-lo", "7", "--n-hi", "16", "--mode", "exhaustive")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["claim"] == "theorem" and record["passed"] is True


def test_verify_formula_dfao_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "formula-dfao")
    assert code == 0
    record = json.loads(out.strip())
    assert record["passed"] is True
    assert record["details"]["k_bound"] == 4096


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "all", "--n-max", "16")
    assert code == 0
    claims = [json.loads(line)["claim"] for line in out.strip().splitlines()]
    assert claims == ["formula-dfao", "bounds", "lemma1", "lemma2", "lemma3",
                      "theorem", "corollary-tails", "monotonicity"]
    assert all(json.loads(line)["passed"] for line in out.strip().splitlines())


def test_verify_bounds_usage_error(capsys, tmp_path):
    negative = "samples must be >= 0"
    for argv, message in (
            (("verify", "--claim", "bounds", "--n-lo", "1"), "n >= 3"),
            (("verify", "--claim", "bounds", "--n-lo", "65", "--n-hi", "65",
              "--samples", "-5"), negative),
            (("verify", "--claim", "theorem", "--samples", "-1"), negative),
            (("verify", "--claim", "formula-dfao", "--samples", "-1"), negative),
            # a flag the claim does not take is refused, not dropped
            (("verify", "--claim", "corollary-tails", "--n-lo", "30"),
             "--claim corollary-tails does not take --n-lo"),
            (("verify", "--claim", "lemma1", "--seed", "3"),
             "--claim lemma1 does not take --seed"),
            (("verify", "--claim", "all", "--depth", "16"),
             "--claim all does not take --depth"),
            (("verify", "--claim", "bounds", "--mode", "sampled"),
             "--claim bounds does not take --mode"),
            # an --out that cannot be written is a usage error, not a failed suite
            (("verify", "--claim", "lemma3", "--n-lo", "7", "--n-hi", "7",
              "--out", str(tmp_path / "missing" / "r.jsonl")), "error: "),
            (("export", "dfao-dot", "--out", str(tmp_path)), "error: "),
            # a length below 1 is refused before any buffer is sized
            (("seq", "-f", "+;+", "-n", "-5"), "error: length must be >= 1, got -5"),
            (("seq", "-f", "+;+", "-n", "0"), "error: length must be >= 1, got 0")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == ""


# one value per verify flag, keyed by the name the claim table uses
FLAG_ARGV = {"n_lo": ("--n-lo", "7"), "n_hi": ("--n-hi", "8"),
             "k_bound": ("--k-bound", "64"), "depth": ("--depth", "9"),
             "mode": ("--mode", "sampled"), "samples": ("--samples", "5"),
             "seed": ("--seed", "3")}


@pytest.fixture
def no_suite_runs(monkeypatch):
    """Every verification function the CLI can reach fails the test if called."""
    def forbidden(*args, **kwargs):
        pytest.fail("a verification suite ran")

    for suite, _ in VERIFY_SUITES.values():
        monkeypatch.setattr(verification, suite, forbidden)


def test_verify_refuses_every_flag_a_claim_does_not_take(capsys, no_suite_runs):
    refused = 0
    for claim, (_, takes) in VERIFY_SUITES.items():
        taken = {"n_hi" if flag == "n_max" else flag for flag in takes}
        for flag, argv in FLAG_ARGV.items():
            if flag in taken:
                continue
            code, out, err = run(capsys, "verify", "--claim", claim, *argv)
            assert code == 2 and out == "", (claim, flag)
            assert f"--claim {claim} does not take {argv[0]}" in err
            refused += 1
    assert refused == 37


def test_verify_unwritable_out_fails_before_any_suite(capsys, tmp_path, no_suite_runs):
    code, out, err = run(capsys, "verify", "--claim", "all", "--n-max", "64",
                         "--out", str(tmp_path / "missing" / "r.jsonl"))
    assert code == 2 and out == "" and "error: " in err


def test_verify_refuses_exhaustive_grids_past_the_depth_cap(capsys, monkeypatch):
    def forbidden(*args):
        pytest.fail("a grid or sweep was built")

    monkeypatch.setattr(appearance, "_prefix_bytes", forbidden)
    monkeypatch.setattr(_batch, "sign_grid", forbidden)
    monkeypatch.setattr(_batch, "pf_prefix_matrix", forbidden)
    monkeypatch.setattr(_batch, "compare_formula_vs_dfao", forbidden)
    # the cap is n = 256, the last n of scan depth 12
    assert appearance.scan_depth(256) == verification.EXHAUSTIVE_DEPTH_MAX
    depth_16 = "exhaustive depth 16 at n=4096 exceeds the 12-bit budget"
    depth_13 = "exhaustive depth 13 at n=257 exceeds the 12-bit budget"
    width_13 = "monotonicity grid width 13 exceeds the 12-bit budget"
    k_bound = "k_bound 65537 exceeds the sweep budget of 65536"
    tracks = "depth 19 exceeds the sweep budget of 18 tracks"
    for argv, message in (
            (("--claim", "theorem", "--n-hi", "4096"), depth_16),
            (("--claim", "lemma1", "--n-lo", "4096", "--n-hi", "4096"), depth_16),
            (("--claim", "theorem", "--n-lo", "257", "--n-hi", "257"), depth_13),
            (("--claim", "lemma2", "--n-hi", "257"), depth_13),
            (("--claim", "lemma3", "--n-hi", "257"), depth_13),
            (("--claim", "corollary-tails", "--n-hi", "257"), depth_13),
            (("--claim", "monotonicity", "--depth", "13"), width_13),
            (("--claim", "monotonicity", "--n-max", "257"), width_13),
            (("--claim", "formula-dfao", "--k-bound", "65537"), k_bound),
            (("--claim", "all", "--k-bound", "65537"), k_bound),
            (("--claim", "formula-dfao", "--depth", "19"), tracks)):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert message in err, argv


def test_verify_refuses_sampled_sizes_past_their_caps(capsys, monkeypatch):
    def forbidden(*args):
        pytest.fail("a sample, grid or sweep was built")

    monkeypatch.setattr(verification, "_sample_rows", forbidden)
    monkeypatch.setattr(_batch, "pf_prefix_matrix", forbidden)
    monkeypatch.setattr(_batch, "compare_formula_vs_dfao", forbidden)
    # the samples cap is the size of the largest exhaustive grid
    assert verification.SAMPLES_MAX == 1 << verification.EXHAUSTIVE_DEPTH_MAX == 4096
    samples = "samples must be >= 0 and at most 4096, got 4097"
    n_hi = "n_hi=2049 exceeds the budget of n <= 2048"
    n_max = "need 7 <= n_max <= 2048 to exercise every claim within budget, got 2049"
    for argv, message in (
            (("--claim", "bounds", "--n-hi", "2049"), n_hi),
            (("--claim", "bounds", "--n-hi", "1048576"),
             "n_hi=1048576 exceeds the budget of n <= 2048"),
            (("--claim", "theorem", "--n-lo", "257", "--n-hi", "2049",
              "--mode", "sampled"), n_hi),
            (("--claim", "all", "--n-max", "2049"), n_max),
            (("--claim", "bounds", "--n-lo", "65", "--n-hi", "65",
              "--samples", "4097"), samples),
            (("--claim", "theorem", "--n-lo", "65", "--n-hi", "65", "--mode",
              "sampled", "--samples", "4097"), samples),
            (("--claim", "formula-dfao", "--depth", "16", "--samples", "4097"), samples),
            (("--claim", "all", "--samples", "100000000"), "got 100000000")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert message in err, argv


def test_per_instance_commands_refuse_sizes_past_their_caps(capsys, monkeypatch):
    # the prefix and the scan are stubbed, so the caps themselves run cheaply
    sizes = []
    real_report = appearance.appearance_report

    def fake_prefix(f, length):
        sizes.append(length)
        return SignWord((1,))

    def fake_report(f, n):
        sizes.append(n)
        return real_report(f, 7)

    monkeypatch.setattr(cli, "pf_prefix", fake_prefix)
    monkeypatch.setattr(cli, "appearance_report", fake_report)
    # both caps keep the single-query sizes (n <= 256, length <= 2^14)
    assert APPEARANCE_N_MAX >= 256 and SEQ_LENGTH_MAX >= 1 << 14
    for argv, message in (
            (("seq", "-n", str(SEQ_LENGTH_MAX + 1)),
             f"seq length {SEQ_LENGTH_MAX + 1} exceeds the cap of {SEQ_LENGTH_MAX}"),
            (("appearance", "-n", str(APPEARANCE_N_MAX + 1)),
             f"appearance n={APPEARANCE_N_MAX + 1} exceeds the cap of {APPEARANCE_N_MAX}")):
        code, out, err = run(capsys, argv[0], "-f", "+;+", *argv[1:])
        assert code == 2 and out == "", argv
        assert message in err, argv
    assert sizes == []
    assert run(capsys, "seq", "-f", "+;+", "-n", str(SEQ_LENGTH_MAX))[0] == 0
    assert run(capsys, "appearance", "-f", "+;+", "-n", str(APPEARANCE_N_MAX))[0] == 0
    assert sizes == [SEQ_LENGTH_MAX, APPEARANCE_N_MAX]


def test_verify_usage_error_keeps_existing_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    out_file.write_text("earlier report\n")
    code, out, _ = run(capsys, "verify", "--claim", "bounds", "--n-lo", "1",
                       "--out", str(out_file))
    assert code == 2 and out == ""
    assert out_file.read_text() == "earlier report\n"
    code, _, _ = run(capsys, "verify", "--claim", "bounds", "--n-lo", "1",
                     "--out", str(tmp_path / "new.jsonl"))
    assert code == 2 and not (tmp_path / "new.jsonl").exists()


def test_verify_formula_dfao_forwards_every_sample(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "formula-dfao", "--k-bound", "64",
                       "--depth", "16", "--samples", "300")
    record = json.loads(out)
    assert code == 0 and record["passed"] is True
    assert record["details"]["stream_count"] == 304


def test_verify_bad_claim(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--claim", "nonsense"])
    assert err.value.code == 2


def test_verify_monotonicity(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "monotonicity",
                       "--n-hi", "8", "--depth", "6")
    assert code == 0
    record = json.loads(out.strip())
    assert record["passed"] is True and record["instruction_depth"] == 6


def test_verify_writes_jsonl_file(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "verify", "--claim", "lemma3",
                       "--n-lo", "7", "--n-hi", "9", "--out", str(out_file))
    assert code == 0 and out == ""
    record = json.loads(out_file.read_text().strip())
    assert record["claim"] == "lemma3" and record["passed"] is True


def test_verify_seed_echoed(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "theorem", "--n-lo", "65",
                       "--n-hi", "65", "--mode", "sampled",
                       "--samples", "20", "--seed", "77")
    assert code == 0
    assert json.loads(out.strip())["seed"] == 77


# --- classify and export ----------------------------------------------------

def test_classify_n2_table(capsys):
    code, out, _ = run(capsys, "classify", "-n", "2")
    assert code == 0
    rows = [ln for ln in out.splitlines() if "->" in ln]
    assert len(rows) == 8
    assert "value set: {4, 5, 6}" in out


def test_classify_n7_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "-n", "7")
    assert code == 2 and "appearance --predict" in err


def test_classify_csv_and_json(capsys):
    code, out, _ = run(capsys, "classify", "-n", "1", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "f0,f1,S"
    code, out, _ = run(capsys, "classify", "-n", "1", "--format", "json")
    assert json.loads(out)["value_set"] == [2, 3]


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "dfao-dot")
    assert code == 0
    assert out.count("doublecircle") == 2
    assert out.count("circle") == 5  # three plain + two double


def test_export_table_deterministic(capsys):
    code, first, _ = run(capsys, "export", "dfao-table")
    assert code == 0 and first.startswith("# dfao-v1\n")
    _, second, _ = run(capsys, "export", "dfao-table")
    assert first == second


def test_classify_csv_out(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, _ = run(capsys, "classify", "-n", "1", "--format", "csv",
                       "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text() == "f0,f1,S\n-1,-1,3\n-1,1,2\n1,-1,2\n1,1,3\n"


def test_classify_needs_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify", "--format", "csv"])
    assert err.value.code == 2 and "-n" in capsys.readouterr().err


def test_export_bad_target(capsys):
    # the classifier table is `classify --format csv`, and the automaton
    # exports have no length, so -n is refused, not dropped
    for argv in (["export", "everything"], ["export", "classifier-csv", "-n", "1"],
                 ["export", "dfao-table", "-n", "9"], ["export", "dfao-dot", "-n", "-4"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2 and capsys.readouterr().out == "", argv


# --- fuzz -------------------------------------------------------------------

# A bounded grammar of command lines.  Sizes stay small, or past a cap that
# refuses them before any work, so every example runs in milliseconds.
INSTRUCTIONS = ("+;+", "+;+-", "++-;+-", " -;+ ", "+-", "", "+x")
FLAG_VALUES = {
    "--n-lo": (-1, 0, 3, 7), "--n-hi": (-1, 0, 5, 9, 12, 2049),
    "--k-bound": (-1, 0, 1, 40, 65537), "--depth": (-1, 0, 1, 4, 19),
    "--mode": ("exhaustive", "sampled", "both"), "--samples": (-1, 0, 2, 4097),
    "--seed": (0, 7), "--format": ("text", "json", "csv", "xml"),
}


def _flag(name, values=None):
    return st.sampled_from(values or FLAG_VALUES[name]).map(lambda v: [name, str(v)])


def _joined(*parts):
    return st.tuples(*parts).map(lambda t: [token for part in t for token in part])


def _command(head, optional):
    extras = st.lists(st.one_of(*optional), max_size=2).map(lambda fs: sum(fs, []))
    junk = st.sampled_from(([],) * 6 + (["--bogus"], ["-n"]))
    return _joined(head, extras, junk)


def _verify_head(claim):
    # the size flags a claim reads are always given, so no default-sized run
    head = [st.just(["verify", "--claim", claim])]
    if claim in ("formula-dfao", "all"):
        head.append(_flag("--k-bound"))
    if claim != "formula-dfao":
        head.append(_flag("--n-hi"))
    return _joined(*head)


instr = _flag("-f", INSTRUCTIONS)
small_n = _flag("-n", (-1, 1, 2, 7, 12))
# seq and appearance also draw a size just past their cap
seq_n = _flag("-n", (-1, 1, 2, 7, 12, SEQ_LENGTH_MAX + 1))
appearance_n = _flag("-n", (-1, 1, 2, 7, 12, APPEARANCE_N_MAX + 1))
fmt = _flag("--format")
COMMANDS = st.one_of(
    _command(_joined(st.just(["seq"]), instr, seq_n), [fmt, st.just(["--oeis"])]),
    _command(_joined(st.just(["eval"]), instr, _flag("-k", (-3, 0, 1, 6, 2 ** 70))),
             [fmt, _flag("--method", ("formula", "dfao", "both", "neither"))]),
    _command(_joined(st.just(["appearance"]), instr, appearance_n),
             [fmt, st.just(["--predict"])]),
    _command(_joined(st.just(["predict"]), instr, small_n), [fmt]),
    _command(st.sampled_from(CLAIMS + ("nope",)).flatmap(_verify_head),
             [_flag(name) for name in FLAG_VALUES if name != "--format"]
             + [st.just(["--out", "OUT"]), st.just(["--out", "MISSING"])]),
    _command(_joined(st.just(["classify"]), _flag("-n", (-1, 0, 1, 3, 7))),
             [fmt, st.just(["--out", "OUT"])]),
    _command(_joined(st.just(["export"]), st.sampled_from(EXPORT_TARGETS + ("everything",))
                     .map(lambda t: [t])),
             [_flag("-n", (0, 2, 9)), st.just(["--out", "OUT"])]),
    # evidence takes no argument; bare, it would compute every pin
    _joined(st.just(["evidence"]),
            st.sampled_from((["extra"], ["--bogus"], ["-n", "3"], ["--out", "OUT"]))),
)


@settings(max_examples=150, deadline=None)
@given(argv=COMMANDS)
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    # 0 on success, 1 on a failed check, 2 on a usage error with an empty
    # stdout; never an uncaught exception
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"OUT": f"{tmp}/out.txt", "MISSING": f"{tmp}/missing/out.txt"}
        argv = [paths.get(token, token) for token in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    assert argv[0] != "evidence" or code == 2, argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv

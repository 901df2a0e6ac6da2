import json

import pytest

from foldscope import verification
from foldscope.cli import VERIFY_SUITES, main


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
            (("export", "dfao-dot", "--out", str(tmp_path)), "error: ")):
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


def test_export_classifier_csv(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, _ = run(capsys, "export", "classifier-csv", "-n", "1",
                       "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "f0,f1,S\n-1,-1,3\n-1,1,2\n1,-1,2\n1,1,3\n"


def test_export_classifier_csv_needs_n(capsys):
    code, _, err = run(capsys, "export", "classifier-csv")
    assert code == 2 and "-n" in err


def test_export_bad_target(capsys):
    with pytest.raises(SystemExit) as err:
        main(["export", "everything"])
    assert err.value.code == 2

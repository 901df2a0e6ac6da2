"""The evidence pins: every row of `cli.EVIDENCE` reproduces its sha256, and
`foldscope evidence` reports a row whose output moved."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from foldscope import cli, verification
from foldscope.cli import EVIDENCE, main

REPO = Path(__file__).resolve().parents[1]

# Every row, depth-12 too: the exhaustive theorem and lemmas at n = 129..256
# read the phi = 256 grid band, the widest any pin covers, and take about
# 3 s cold (2-core Xeon).
@pytest.mark.parametrize("name", list(EVIDENCE))
def test_evidence_row_reproduces_its_pin(capsys, monkeypatch, name):
    monkeypatch.setattr(cli, "EVIDENCE", {name: EVIDENCE[name]})
    assert main(["evidence"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "name": name, "sha256": EVIDENCE[name][1], "ok": True}


def test_benchmark_verify_all_digest_is_the_table_pin():
    # the benchmark keeps its own copy of the verify-all pin
    text = (REPO / "perfbench" / "workloads.py").read_text()
    copies = re.findall(r'^VERIFY_ALL_DIGEST = "([0-9a-f]{64})"$', text, re.M)
    assert copies == [EVIDENCE["verify-all"][1]]


@pytest.fixture
def small_table(monkeypatch):
    """EVIDENCE under its own row names, each row producing its name; counts
    the cache clears."""
    table = {name: (lambda name=name: name, hashlib.sha256(name.encode()).hexdigest())
             for name in EVIDENCE}
    clears = []
    monkeypatch.setattr(cli, "EVIDENCE", table)
    monkeypatch.setattr(verification, "clear_caches", lambda: clears.append(1))
    return table, clears


def test_evidence_prints_one_line_per_row_in_table_order(capsys, small_table):
    table, clears = small_table
    assert main(["evidence"]) == 0
    first, err = capsys.readouterr()
    assert [json.loads(line) for line in first.splitlines()] == [
        {"name": name, "sha256": pinned, "ok": True} for name, (_, pinned) in table.items()]
    assert err == "" and len(clears) == len(EVIDENCE) == 8
    assert main(["evidence"]) == 0
    assert capsys.readouterr().out == first


def test_evidence_names_the_mismatched_row(capsys, small_table):
    table, _ = small_table
    produce, pinned = table["lemmas"]
    table["lemmas"] = (produce, "0" * 64)
    assert main(["evidence"]) == 1
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["name"] for line in lines] == list(EVIDENCE)
    assert [line["name"] for line in lines if not line["ok"]] == ["lemmas"]
    assert err == f"evidence lemmas: got {pinned}, pinned {'0' * 64}\n"


@pytest.mark.parametrize("argv", (["extra"], ["--check"], ["--only", "lemmas"],
                                  ["-n", "3"], ["--out", "evidence.jsonl"]))
def test_evidence_takes_no_arguments(capsys, monkeypatch, argv):
    def forbidden():
        pytest.fail("an evidence producer ran")

    monkeypatch.setattr(cli, "EVIDENCE", {name: (forbidden, pinned)
                                          for name, (_, pinned) in EVIDENCE.items()})
    with pytest.raises(SystemExit) as exc:
        main(["evidence", *argv])
    assert exc.value.code == 2 and capsys.readouterr().out == ""

"""The repository's own tooling: the test configuration (a failing test
is reported, and the run goes on to the tests after it), the names the
benchmark traces, the README's claim table and the demos."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from foldscope import _batch, appearance, classifier, dfao, folding, verification
from foldscope.cli import VERIFY_SUITES

REPO = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    # the traced benchmark wraps library names by attribute; a deleted or
    # renamed one fails here instead of only in the benchmark's own runs
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import layers
    import tracing

    modules = (_batch, appearance, classifier, dfao, folding, verification)
    before = [dict(vars(module)) for module in modules]
    with tracing.Tracer(time.perf_counter) as tracer:
        layers.instrument(tracer)
        wrapped = [name for module, names in zip(modules, before)
                   for name, value in names.items() if vars(module)[name] is not value]
    assert wrapped
    assert [dict(vars(module)) for module in modules] == before


def test_readme_claim_table_lists_each_claims_flags():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| Claim | Flags (default) |"):]
    table = table[:table.index("\n\n")]
    listed = {}
    for claims, flags in re.findall(r"^\| (.+?) \| (.+) \|$", table, re.M):
        for claim in re.findall(r"`([a-z0-9-]+)`", claims):
            listed[claim] = tuple(flag.replace("-", "_")
                                  for flag in re.findall(r"`--([a-z-]+)`", flags))
    assert listed == {claim: flags for claim, (_, flags) in VERIFY_SUITES.items()}


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("0*.py")))
def test_demo_runs(demo):
    # a public signature a demo calls cannot change unnoticed
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=REPO, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr

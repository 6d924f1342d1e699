"""Golden report bytes: exit code, stdout and stderr of every subcommand.

Each fixture ``tests/golden/<case>.golden.json`` holds the argv of one
configuration and, for ``--format csv`` and ``--format json``, the exit
code and the exact stdout and stderr of ``sofic.cli.main``.  The inputs
the configurations name sit in the same directory and are passed by
relative path (``sofic-check`` echoes ``--group file:<path>`` in JSON).

A change that alters a report on purpose regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden_reports.py

and the diff of ``tests/golden`` shows every byte that moved.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from sofic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "algebraic_rank1_reference": [
        "algebraic", "--group", "Z", "--poly", "3 - x - x^-1", "--quotients", "1..12"],
    "algebraic_expanding": [
        "algebraic", "--group", "Z", "--poly", "x - 2", "--quotients", "1..10"],
    "algebraic_skipped_rows": [
        "algebraic", "--group", "Z", "--poly", "1 + x + x^2", "--quotients", "1..9"],
    "algebraic_caveats": [
        "algebraic", "--group", "Z", "--poly", "2 - x^3", "--quotients", "1..6"],
    "algebraic_caveats_singular": [
        "algebraic", "--group", "Z", "--poly", "1 - x^3", "--quotients", "1..4"],
    "algebraic_singular_laplacian": [
        "algebraic", "--group", "Z2", "--poly", "4 - x - x^-1 - y - y^-1",
        "--quotients", "1..3", "--grid", "64"],
    "algebraic_moduli": [
        "algebraic", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1",
        "--moduli", "2,3", "--moduli", "3,4", "--grid", "64"],
    "algebraic_chain_comma_label": [
        "algebraic", "--group", "file:chain_comma.json"],
    "algebraic_chain_singular": [
        "algebraic", "--group", "file:chain_singular.json"],
    "subshift_golden_mean": [
        "subshift", "--sft", "golden_mean.json", "--quotients", "1..8", "--budget", "0,1,3"],
    "subshift_alternating_zero_counts": [
        "subshift", "--sft", "alternating.json", "--quotients", "1..6", "--budget", "0,1"],
    "mahler_rank1": ["mahler", "--group", "Z", "--poly", "3 - x - x^-1"],
    "mahler_rank2_laplacian": [
        "mahler", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1", "--grid", "64"],
    "mahler_vanishing": ["mahler", "--group", "Z", "--poly", "1 - x"],
    "sofic_check_z": [
        "sofic-check", "--group", "Z", "--quotients", "3..5", "--elements", "1;2;4"],
    "sofic_check_z2": [
        "sofic-check", "--group", "Z2", "--quotients", "2..3", "--elements", "1,0;0,1;2,2"],
    "sofic_check_chain": [
        "sofic-check", "--group", "file:chain_comma.json", "--elements", "a;a*b;a^4"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _fixture_path(case):
    return GOLDEN / f"{case}.golden.json"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_bytes(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    golden = json.loads(_fixture_path(case).read_text(encoding="utf-8"))
    assert golden["argv"] == CASES[case]
    for fmt in ("csv", "json"):
        assert _run(CASES[case] + ["--format", fmt]) == golden[fmt], fmt


def test_every_fixture_has_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.golden.json")) == sorted(
        _fixture_path(case).name for case in CASES
    )


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case, argv in CASES.items():
        fixture = {"argv": argv}
        for fmt in ("csv", "json"):
            fixture[fmt] = _run(argv + ["--format", fmt])
        _fixture_path(case).write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")

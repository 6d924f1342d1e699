import json
import math

import pytest

from sofic.cli import main

from helpers import cyclic_table


GM_JSON = json.dumps(
    {"alphabet": [0, 1], "window": [0, 1], "allowed": [[0, 0], [0, 1], [1, 0]]}
)


def _read(path):
    return path.read_text(encoding="utf-8")


def _csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# algebraic


def test_algebraic_expanding(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(
        ["algebraic", "--group", "Z", "--poly", "x - 2", "--quotients", "1..30",
         "--out", str(out)]
    )
    assert rc == 0
    rows = _csv_rows(_read(out))
    assert len(rows) == 30
    h30 = float(rows[-1]["h_n"])
    assert abs(h30 - math.log(2)) <= 1e-9
    assert abs(h30 - math.log(2**30 - 1) / 30) < 1e-14
    captured = capsys.readouterr()
    assert "residual" in captured.out


def test_algebraic_bernoulli_rows(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(
        ["algebraic", "--group", "Z", "--poly", "2", "--quotients", "1..10",
         "--out", str(out)]
    )
    assert rc == 0
    for row in _csv_rows(_read(out)):
        assert float(row["h_n"]) == pytest.approx(math.log(2), abs=1e-12)


def test_algebraic_non_invertible_exit_code(tmp_path):
    out = tmp_path / "trace.json"
    rc = main(
        ["algebraic", "--group", "Z", "--poly", "x - 1", "--quotients", "1..5",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 3
    obj = json.loads(_read(out))
    assert obj["records"] == []
    assert [s["nullity"] for s in obj["skipped"]] == [1] * 5
    assert obj["certificate"]["verdict"] == "not_invertible_suspected"


def test_algebraic_parse_error_exit_code(capsys):
    rc = main(["algebraic", "--group", "Z", "--poly", "x +* 2", "--quotients", "1..5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_algebraic_rank2_moduli(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(
        ["algebraic", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1",
         "--moduli", "2,3", "--moduli", "4,4", "--grid", "64", "--out", str(out)]
    )
    assert rc == 0
    rows = _csv_rows(_read(out))
    assert [r["label"] for r in rows] == ["Z/2xZ/3", "Z/4xZ/4"]
    assert [r["d"] for r in rows] == ["6", "16"]


def test_algebraic_resource_guard(tmp_path, monkeypatch):
    monkeypatch.setenv("SEL_MAX_DIM", "100")
    rc = main(["algebraic", "--group", "Z", "--poly", "x - 2", "--quotients", "1..50"])
    assert rc == 4


def test_algebraic_explicit_chain_matches_torus(tmp_path):
    chain = {
        "name": "Z via cyclic quotients",
        "poly": {"e": -2, "a": 1},
        "quotients": [
            {"label": f"C{n}", "table": cyclic_table(n), "images": {"a": 1}}
            for n in (2, 4, 8)
        ],
    }
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    out = tmp_path / "chain_trace.csv"
    rc = main(["algebraic", "--group", f"file:{chain_path}", "--out", str(out)])
    assert rc == 0
    rows = _csv_rows(_read(out))
    assert [r["label"] for r in rows] == ["C2", "C4", "C8"]
    for row, n in zip(rows, (2, 4, 8)):
        assert float(row["h_n"]) == pytest.approx(math.log(2**n - 1) / n, rel=1e-12)


def test_algebraic_chain_rejects_poly_flag(tmp_path):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(
        json.dumps(
            {"poly": {"e": 1}, "quotients": [
                {"label": "C2", "table": cyclic_table(2), "images": {"a": 1}}
            ]}
        ),
        encoding="utf-8",
    )
    rc = main(
        ["algebraic", "--group", f"file:{chain_path}", "--poly", "x - 2"]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# subshift


def test_subshift_golden_mean(tmp_path):
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(GM_JSON, encoding="utf-8")
    out = tmp_path / "table.csv"
    rc = main(
        ["subshift", "--sft", str(sft_path), "--quotients", "2..30",
         "--budget", "0", "--out", str(out)]
    )
    assert rc == 0
    rows = _csv_rows(_read(out))
    final = rows[-1]
    assert final["n"] == "30"
    assert abs(float(final["h_n"]) - 0.481212) <= 1e-3
    assert all(float(r["h_n"]) < math.log(2) for r in rows)


def test_subshift_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": [0, 1], ', encoding="utf-8")
    rc = main(["subshift", "--sft", str(bad), "--quotients", "2..4"])
    assert rc == 2
    assert "position" in capsys.readouterr().err


def test_subshift_budgets(tmp_path):
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(GM_JSON, encoding="utf-8")
    out = tmp_path / "table.json"
    rc = main(
        ["subshift", "--sft", str(sft_path), "--quotients", "4..4",
         "--budget", "1,2", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    obj = json.loads(_read(out))
    assert [r["budget"] for r in obj["rows"]] == [0, 1, 2]
    counts = [r["count"] for r in obj["rows"]]
    assert counts == sorted(counts)
    assert counts[0] == 7


# ---------------------------------------------------------------------------
# mahler


def test_mahler_two_sided(tmp_path):
    out = tmp_path / "mahler.json"
    rc = main(
        ["mahler", "--group", "Z", "--poly", "3 - x - x^-1", "--grid", "4096",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    obj = json.loads(_read(out))
    methods = {e["method"]: e for e in obj["estimates"]}
    expected = math.log((3 + math.sqrt(5)) / 2)
    assert methods["jensen"]["value"] == pytest.approx(expected, abs=1e-10)
    assert methods["quadrature"]["value"] == pytest.approx(expected, abs=1e-9)
    assert obj["certificate"]["verdict"] == "certified_invertible"


def test_mahler_vanishing_input(tmp_path):
    out = tmp_path / "mahler.json"
    rc = main(
        ["mahler", "--group", "Z2", "--poly", "4 - x - x^-1 - y - y^-1",
         "--grid", "128", "--format", "json", "--out", str(out)]
    )
    assert rc == 3
    obj = json.loads(_read(out))
    assert obj["certificate"]["verdict"] == "not_invertible_suspected"
    assert obj["certificate"]["witness"] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# sofic-check


def test_sofic_check_table(tmp_path):
    out = tmp_path / "defects.csv"
    rc = main(
        ["sofic-check", "--group", "Z", "--quotients", "4..6",
         "--elements", "1;2;3", "--out", str(out)]
    )
    assert rc == 0
    rows = _csv_rows(_read(out))
    assert all(float(r["multiplicative_defect"]) == 0.0 for r in rows)
    assert all(float(r["freeness_defect"]) == 0.0 for r in rows)


def test_sofic_check_flags_congruent_pair(tmp_path):
    out = tmp_path / "defects.csv"
    rc = main(
        ["sofic-check", "--group", "Z", "--quotients", "4..4",
         "--elements", "1;5", "--out", str(out)]
    )
    assert rc == 0
    rows = _csv_rows(_read(out))
    assert all(float(r["freeness_defect"]) == 1.0 for r in rows)  # 5 = 1 mod 4
    assert all(float(r["multiplicative_defect"]) == 0.0 for r in rows)


def test_sofic_check_explicit_chain(tmp_path):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(
        json.dumps(
            {"quotients": [
                {"label": "C5", "table": cyclic_table(5), "images": {"a": 1}}
            ]}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "defects.csv"
    rc = main(
        ["sofic-check", "--group", f"file:{chain_path}",
         "--elements", "a;a^2;a^6", "--out", str(out)]
    )
    assert rc == 0
    rows = _csv_rows(_read(out))
    by_pair = {(r["s"], r["t"]): r for r in rows}
    assert float(by_pair[("a", "a^2")]["freeness_defect"]) == 0.0
    assert float(by_pair[("a", "a^6")]["freeness_defect"]) == 1.0  # a^6 = a in C5
    assert all(float(r["multiplicative_defect"]) == 0.0 for r in rows)


# ---------------------------------------------------------------------------
# determinism and format consistency


def test_reports_are_byte_identical(tmp_path):
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(GM_JSON, encoding="utf-8")
    configs = [
        ["algebraic", "--group", "Z", "--poly", "3 - x - x^-1", "--quotients", "1..12",
         "--format", "json"],
        ["algebraic", "--group", "Z", "--poly", "x - 2", "--quotients", "1..10",
         "--format", "csv"],
        ["subshift", "--sft", str(sft_path), "--quotients", "2..12", "--budget", "0,1",
         "--format", "csv"],
        ["sofic-check", "--group", "Z", "--quotients", "3..6", "--elements", "1;2;4",
         "--format", "json"],
    ]
    for i, config in enumerate(configs):
        first = tmp_path / f"run{i}_a.out"
        second = tmp_path / f"run{i}_b.out"
        assert main(config + ["--out", str(first)]) == main(config + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


def test_csv_json_numeric_fields_agree(tmp_path):
    base = ["algebraic", "--group", "Z", "--poly", "3 - x - x^-1", "--quotients", "1..8"]
    csv_out = tmp_path / "t.csv"
    json_out = tmp_path / "t.json"
    assert main(base + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
    csv_rows = _csv_rows(_read(csv_out))
    json_rows = json.loads(_read(json_out))["records"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert c["label"] == j["label"]
        assert int(c["d"]) == j["d"]
        assert c["log_fix_count"] == repr(j["log_fix_count"])
        assert c["h_n"] == repr(j["h_n"])


def test_stdout_report_when_no_out(capsys):
    rc = main(["algebraic", "--group", "Z", "--poly", "2", "--quotients", "1..3"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("label,d,log_fix_count,h_n")
    assert "residual" in captured.err


def test_determinism_across_processes(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sofic

    # the child imports the sofic under test, installed or not
    src = str(Path(sofic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "sofic", "algebraic", "--group", "Z",
            "--poly", "3 - x - x^-1", "--quotients", "1..10", "--format", "json"]
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(args + ["--out", str(path)], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

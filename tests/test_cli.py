import csv
import decimal
import io
import json
import math
import sys
import tracemalloc

import pytest

from sofic import SubshiftSFT, TorusQuotient, hom_count_exact, sofic_map_from_quotient
from sofic import algebraic, cli, companion, parse_laurent, spectral, subshift, torus_quotient
from sofic.cli import main

from helpers import cyclic_table, lucas_numbers, s3_table, sl2_table


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


def _refuse(*args):
    raise AssertionError("work started before the guard refused")


def test_algebraic_resource_guard(tmp_path, capsys, monkeypatch):
    # the default cost cap refuses Z/200000 of 3 - x^5 - x^-5 on both routes,
    # before any prime is drawn or any power of the companion matrix taken
    monkeypatch.setattr(algebraic, "_character_primes", _refuse)
    monkeypatch.setattr(companion.Companion, "counts", _refuse)
    rc = main(["algebraic", "--group", "Z", "--poly", "3 - x^5 - x^-5",
               "--quotients", "200000..200000"])
    assert rc == 4
    assert "resource guard: estimated cost at Z/200000 exceeds" in capsys.readouterr().err


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


def _z3_chain(poly=None, table=None, images=None):
    return {
        "poly": {"e": 3, "a": -1} if poly is None else poly,
        "quotients": [{"label": "C3", "table": table or cyclic_table(3),
                       "images": images or {"a": 1}}],
    }


@pytest.mark.parametrize(
    "chain, field",
    [
        (_z3_chain(poly={"e": 3.7, "a": -1}), "'poly' coefficient of 'e'"),
        (_z3_chain(poly={"e": True, "a": -1}), "'poly' coefficient of 'e'"),
        (_z3_chain(poly={"e": "3", "a": -1}), "'poly' coefficient of 'e'"),
        (_z3_chain(images={"a": 1.9}), "image of generator 'a'"),
        (_z3_chain(table=[[0, 1, 2], [1.2, 2, 0], [2, 0, 1]]), "table entries"),
        (_z3_chain(table=[[0, True, 2], [True, 2, 0], [2, 0, True]]), "not bool"),
        (_z3_chain(poly=[1]), "'poly'"),
        (_z3_chain(images=[1]), "generator images"),
        ({"poly": {"e": 3}, "quotients": [{"label": 5, "table": cyclic_table(3),
                                             "images": {"a": 1}}]}, "label"),
        (5, "lists no quotients"),
        ({"quotients": 5}, "lists no quotients"),
        ({"quotients": [5]}, "'table' and 'images'"),
        ({"quotients": ["table images"]}, "'table' and 'images'"),
    ],
    ids=["float_coefficient", "bool_coefficient", "string_coefficient", "float_image",
         "float_table_entry", "bool_table_entry", "poly_not_object", "images_not_object",
         "label_not_string", "chain_not_object", "quotients_not_list", "quotient_not_object",
         "quotient_a_string"],
)
def test_algebraic_chain_refuses_malformed_fields(tmp_path, capsys, chain, field):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    rc = main(["algebraic", "--group", f"file:{chain_path}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


@pytest.mark.parametrize("text, flags, message", [
    ('{"quotients": [', [],
     "error: malformed JSON in '{path}': Expecting value (at position 15)\n"),
    (json.dumps(_z3_chain()), ["--poly", "x - 2"],
     "error: explicit chains take the polynomial from the chain file, not --poly\n"),
    (json.dumps({"quotients": _z3_chain()["quotients"]}), [],
     "error: the quotient chain file defines no 'poly'\n"),
    (json.dumps(_z3_chain(poly={"e": 3, "a+b": -1})), [],
     "error: unexpected character '+' in word (at position 1)\n"),
    (json.dumps(_z3_chain(poly={"e": 3, "a a": -1})), [],
     "error: missing '*' between word factors (at position 2)\n"),
    (json.dumps(_z3_chain(poly={"e": 3, "a*2": -1})), [],
     "error: expected generator name, got '2' (at position 2)\n"),
    (json.dumps(_z3_chain(poly={"e": 3, "a*": -1})), [],
     "error: word ends with dangling '*' (at position 2)\n"),
], ids=["malformed JSON", "poly flag", "no poly", "unexpected character in a word",
        "missing star in a word", "number for a generator", "dangling star in a word"])
def test_algebraic_chain_file_refusals(tmp_path, capsys, text, flags, message):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(text, encoding="utf-8")
    assert main(["algebraic", "--group", f"file:{chain_path}", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(path=chain_path)


def test_algebraic_singular_explicit_chain_nullities(tmp_path, capsys):
    table, perms = s3_table()
    quotients = [{"label": "S3", "table": table,
                  "images": {"a": perms.index((1, 0, 2)), "b": perms.index((1, 2, 0))}}]
    for p in (3, 5):
        table, a, b = sl2_table(p)
        quotients.append({"label": f"SL(2,{p})", "table": table, "images": {"a": a, "b": b}})
    poly = {"e": 1, "a": -1, "b": 1, "b*a": -1, "a*b*a": 1, "a*b*a*a": -1}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({"poly": poly, "quotients": quotients}), encoding="utf-8")
    argv = ["algebraic", "--group", f"file:{chain_path}"]
    # the report of the dense Smith normal form route, byte for byte
    expected = {
        "f_description": "1 - a + b - b*a + a*b*a - a*b*a^2",
        "reference_value": None,
        "records": [],
        "skipped": [
            {"label": "S3", "d": 6, "nullity": 5},
            {"label": "SL(2,3)", "d": 24, "nullity": 13},
            {"label": "SL(2,5)", "d": 120, "nullity": 24},
        ],
        "certificate": None,
        "residual": None,
    }
    assert main(argv + ["--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == json.dumps(expected, indent=2) + "\n"
    assert captured.err == "skipped 3 non-invertible quotient(s)\n"
    assert main(argv + ["--format", "csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "label,d,log_fix_count,h_n\n"
    assert captured.err == "skipped 3 non-invertible quotient(s)\n"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_subshift_writes_exact_counts_of_any_length(tmp_path, capsys, fmt):
    # golden mean shift on Z/n: the count is the Lucas number L_n, which has
    # more than 4300 digits, CPython's default limit for writing an int, from
    # n = 20576 on; Decimal reads and compares such digits exactly
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(GM_JSON, encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert main(["subshift", "--sft", str(sft_path), "--quotients", "20576..20576",
                 "--format", fmt]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = capsys.readouterr().out
    if fmt == "csv":
        count = decimal.Decimal(_csv_rows(text)[0]["count"])
    else:
        count = json.loads(text, parse_int=decimal.Decimal)["rows"][0]["count"]
    lucas = lucas_numbers(20576)[20576]
    assert count == decimal.Decimal(lucas)
    assert len(str(decimal.Decimal(lucas))) == 4301


def test_subshift_parses_no_number_past_the_digit_limit(tmp_path, capsys):
    # the renderer writes counts of any length, but the parsers keep the limit
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(GM_JSON, encoding="utf-8")
    bound = "9" * 5000
    assert main(["subshift", "--sft", str(sft_path), "--quotients", f"1..{bound}"]) == 2
    assert capsys.readouterr().err == (
        f"error: quotient range bounds must be integers, got '1..{bound}'\n"
    )


def test_subshift_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": [0, 1], ', encoding="utf-8")
    rc = main(["subshift", "--sft", str(bad), "--quotients", "2..4"])
    assert rc == 2
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("obj, message", [
    ({"alphabet": [0, 0], "window": [0, 1], "allowed": [[0, 0]]}, "alphabet has repeated symbols"),
    ({"alphabet": [0, 1], "window": [], "allowed": [[]]}, "window must be nonempty"),
    ([0, 1], "SFT description must be a JSON object"),
], ids=["repeated symbols", "empty window", "not an object"])
def test_subshift_invalid_sft_messages(tmp_path, capsys, obj, message):
    path = tmp_path / "sft.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["subshift", "--sft", str(path), "--quotients", "2..4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid SFT in '{path}': {message}\n"


def test_subshift_unreadable_sft(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["subshift", "--sft", str(path), "--quotients", "2..4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read SFT file '{path}': [Errno 2] No such file or directory: '{path}'\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, fmt, where):
    # an --out that cannot be opened exits 2 and writes no byte to stdout
    path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    argv = ["mahler", "--poly", "3 - x - x^-1", "--format", fmt, "--out", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = ("[Errno 2] No such file or directory" if where == "missing directory"
              else "[Errno 21] Is a directory")
    assert captured.err == f"error: cannot write report '{path}': {reason}: '{path}'\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "sft",
    [
        {"alphabet": [0, 1], "window": [0.5, 1.7], "allowed": [[0, 0]]},
        {"alphabet": [0, 1], "window": ["0", "1"], "allowed": [[0, 0]]},
        {"alphabet": [0, 1], "window": [False, 2], "allowed": [[0, 0]]},
        {"alphabet": [[0], [1]], "window": [0, 1], "allowed": [[[0], [1]]]},
        {"alphabet": [0, 1], "window": [0, 1], "allowed": [0]},
    ],
    ids=["float_offsets", "string_offsets", "bool_offset", "unhashable_symbols",
         "scalar_pattern"],
)
def test_subshift_invalid_sft(tmp_path, capsys, sft):
    path = tmp_path / "sft.json"
    path.write_text(json.dumps(sft), encoding="utf-8")
    rc = main(["subshift", "--sft", str(path), "--quotients", "2..4"])
    assert rc == 2
    assert "invalid SFT" in capsys.readouterr().err


def test_subshift_resource_guard(tmp_path, capsys, monkeypatch):
    # 100 symbols over Z/1..20: 20 products of 100 x 100 matrices of 3-word
    # entries, 6 * 10^7, over the default cap, refused before the walk starts
    monkeypatch.setattr(subshift, "_transfer_traces", _refuse)
    obj = {"alphabet": list(range(100)), "window": [0, 1],
           "allowed": [[a, b] for a in range(100) for b in range(100) if a != b]}
    sft_path = tmp_path / "wide.json"
    sft_path.write_text(json.dumps(obj), encoding="utf-8")
    rc = main(["subshift", "--sft", str(sft_path), "--quotients", "1..20"])
    assert rc == 4
    assert "resource guard: the transfer walk's estimated cost 60000000" in capsys.readouterr().err


def test_subshift_window3_beyond_enumeration_cap(tmp_path):
    obj = {"alphabet": [0, 1], "window": [0, 1, 2],
           "allowed": [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)
                       if len({a, b, c}) == 2]}
    sft_path = tmp_path / "window3.json"
    sft_path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "table.csv"
    rc = main(["subshift", "--sft", str(sft_path), "--quotients", "1..24",
               "--budget", "0,1", "--out", str(out)])
    assert rc == 0  # 2^24 labelings are beyond the enumeration cap
    rows = _csv_rows(_read(out))
    assert [(int(r["n"]), int(r["budget"])) for r in rows] == [
        (n, b) for n in range(1, 25) for b in (0, 1)
    ]
    assert {r["method"] for r in rows} == {"transfer_matrix"}
    sft = SubshiftSFT.from_json_obj(obj)
    for row in rows:
        n, budget = int(row["n"]), int(row["budget"])
        if n <= 12:
            sigma = sofic_map_from_quotient(torus_quotient([n]), {0, 1, 2})
            assert int(row["count"]) == hom_count_exact(sft, sigma, (0, 1, 2), budget), row


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


@pytest.mark.parametrize("poly, value", [
    # x -> x^256 keeps the measure, m(3 - x - x^-1) = 0.9624237, and the
    # 1-D integral of arccosh((10 - 2 cos a) / 2) gives 2.2816116; the grid
    # and its half alias the same frequencies, so both read a wrong value
    ("3 - x^256 - x^-256 + y - y", "0.0"),
    ("10 - x^256 - x^-256 - y^256 - y^-256", "1.7917594692280547"),
])
def test_mahler_claims_no_bound_without_a_certificate(capsys, poly, value):
    argv = ["mahler", "--group", "Z2", "--poly", poly, "--grid", "256"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == f"method,value,error_bound,evaluations,grid\nquadrature,{value},,65536,256\n"
    assert captured.err == (f"quadrature: {value} (no error bound: certificate unknown)\n"
                            "certificate: unknown\n")
    assert main(argv + ["--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["certificate"]["verdict"] == "unknown"
    assert obj["estimates"] == [{"method": "quadrature", "value": float(value),
                                 "error_bound": None, "evaluations": 65536, "grid": 256}]
    # a certified grid keeps the bound
    assert main(["mahler", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1", "--grid", "256"]) == 0
    assert "(error bound 1.256e-13)\ncertificate: certified_invertible\n" in capsys.readouterr().err


def test_mahler_refuses_a_grid_of_zero(capsys):
    # a given --grid 0 is refused, not read as the default grid
    assert main(["mahler", "--group", "Z", "--poly", "3 - x - x^-1", "--grid", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid must be an even integer >= 4\n"


@pytest.mark.parametrize("group, poly", [("Z", "3 - x - x^-1"),
                                         ("Z2", "5 - x - x^-1 - y - y^-1")])
def test_mahler_scans_the_torus_grid_once(capsys, monkeypatch, group, poly):
    scans = _spy(monkeypatch, spectral, "_grid_values")
    assert main(["mahler", "--group", group, "--poly", poly, "--grid", "64"]) == 0
    assert len(scans) == 1
    assert "quadrature: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["--poly", "3 - x - x^-1", "--grid", "0"], 2,
     "error: grid must be an even integer >= 4\n"),
    (["--poly", "3 - x - x^-1", "--grid", "5"], 2,
     "error: grid must be an even integer >= 4\n"),
    (["--group", "Z2", "--poly", "x - x", "--grid", "64"], 2,
     "error: Mahler measure of the zero element is undefined\n"),
    (["--poly", "1 + x^65"], 2, "error: degree 65 exceeds root-finder cap 64\n"),
    (["--group", "Z2", "--poly", "5 - x - y", "--grid", "10000000"], 4,
     "resource guard: torus grid of 100000000000000 points exceeds the grid cap "
     "4194304\n"),
    (["--group", "file:chain.json", "--poly", "x"], 2,
     "error: mahler supports the torus groups Z, Z2, Z3, Z4\n"),
], ids=["grid of 0", "odd grid", "zero f on Z2", "degree over the root cap",
        "grid over the cap", "file group"])
def test_mahler_refuses_before_any_scan(capsys, monkeypatch, argv, code, message):
    scans = _spy(monkeypatch, spectral, "_grid_values")
    assert main(["mahler", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert scans == []


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


def test_sofic_check_names_the_identity_word_e(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({"quotients": [
        {"label": "C5", "table": cyclic_table(5), "images": {"a": 1}},
    ]}), encoding="utf-8")
    assert main(["sofic-check", "--group", f"file:{chain_path}", "--elements", "e;a"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert {(r["s"], r["t"]) for r in rows} == {("e", "a"), ("a", "e")}


@pytest.mark.parametrize("argv, code, message", [
    (["--quotients", "3..4", "--elements", "1;x"], 2,
     "error: expected an integer element, got 'x'\n"),
    (["--group", "Z2", "--quotients", "3..4", "--elements", "1,0;1"], 2,
     "error: element '1' has 1 components, expected 2\n"),
    (["--quotients", "3..4", "--elements", " ; "], 2, "error: no elements given\n"),
    (["--quotients", "3..4", "--elements", "1;1"], 2,
     "error: need at least two distinct elements for defect checks\n"),
    # 30 elements and their 435 distinct sums: 465 permutations of 10^6
    # int64 entries, 3.7 GB
    (["--group", "Z2", "--quotients", "1000..1000",
      "--elements", ";".join(f"{k},{k * k}" for k in range(1, 31))], 4,
     "resource guard: a sofic map of 465 elements on 1000000 cosets exceeds the cap "
     "30000000 permutation entries\n"),
], ids=["element not an integer", "element of the wrong arity", "no elements",
        "one distinct element", "maps over the cap"])
def test_sofic_check_refuses_before_any_permutation(capsys, monkeypatch, argv, code, message):
    built = _spy(monkeypatch, TorusQuotient, "coset_translation_perm")
    assert main(["sofic-check", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert built == []


def test_sofic_check_refuses_rows_before_listing_pairs(capsys, monkeypatch):
    # 2,000 elements: 3,998,000 pairs, refused before any pair, product or
    # permutation is made
    products = _spy(monkeypatch, cli, "element_mul")
    built = _spy(monkeypatch, TorusQuotient, "coset_translation_perm")
    elements = ";".join(str(k) for k in range(1, 2001))
    assert main(["sofic-check", "--quotients", "1..1", "--elements", elements]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource guard: 3998000 report rows (3998000 pairs of elements, 1 quotients) "
        "exceed the cap 100000\n"
    )
    assert products == built == []
    # the cap counts the rows written: repeated elements pair once per copy
    monkeypatch.setattr(cli, "SOFIC_ROW_CAP", 20)
    argv = ["sofic-check", "--quotients", "3..4", "--elements", "1;2;2;3"]
    assert main(argv) == 0
    assert len(_csv_rows(capsys.readouterr().out)) == 20
    monkeypatch.setattr(cli, "SOFIC_ROW_CAP", 19)
    assert main(argv) == 4
    assert "20 report rows (10 pairs of elements, 2 quotients)" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sofic_check_refuses_an_unknown_generator_before_any_byte(tmp_path, capsys, fmt):
    # every element's image is checked before the writer starts, so neither
    # the CSV header nor an empty --out file comes before the refusal
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({"quotients": [
        {"label": "C5", "table": cyclic_table(5), "images": {"a": 1}},
        {"label": "C6", "table": cyclic_table(6), "images": {"a": 1}},
    ]}), encoding="utf-8")
    out = tmp_path / "defects"
    argv = ["sofic-check", "--group", f"file:{chain_path}", "--elements", "a;zz",
            "--format", fmt]
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown generator 'zz' for quotient C5\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt, bound", [("csv", 100), ("json", 1000)])
def test_sofic_check_streams_its_rows(tmp_path, fmt, bound):
    # tracemalloc peaks at 60 and 120 elements (3,540 and 14,280 rows), the
    # report written to a file: a CSV row is written as it is drawn, and a
    # JSON row is held only as the cut copy that json.dump writes, so an
    # added row costs about 45 B in CSV and 450 B in JSON
    def peak(n):
        elements = ";".join(str(k) for k in range(1, n + 1))
        argv = ["sofic-check", "--quotients", "1..1", "--elements", elements,
                "--format", fmt, "--out", str(tmp_path / "defects")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(120) - peak(60)) / (14280 - 3540) < bound


# ---------------------------------------------------------------------------
# quotient order, checked by entropy_trace alone


def test_sofic_check_accepts_unordered_moduli(tmp_path):
    out = tmp_path / "defects.csv"
    rc = main(["sofic-check", "--group", "Z2", "--moduli", "3,3", "--moduli", "2,2",
               "--elements", "1,0;0,1", "--out", str(out)])
    assert rc == 0
    rows = _csv_rows(_read(out))
    assert [r["label"] for r in rows] == ["Z/3xZ/3"] * 2 + ["Z/2xZ/2"] * 2


def test_algebraic_refuses_unordered_moduli(capsys):
    rc = main(["algebraic", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1",
               "--moduli", "3,3", "--moduli", "2,2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "nondecreasing" in captured.err


def _spy(monkeypatch, module, name):
    """A list of the argument tuples of every call of module.name."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_algebraic_scans_the_torus_grid_once(tmp_path, monkeypatch):
    scans = _spy(monkeypatch, spectral, "_grid_values")
    rc = main(["algebraic", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1",
               "--quotients", "2..4", "--grid", "64", "--format", "json",
               "--out", str(tmp_path / "t.json")])
    assert rc == 0
    assert len(scans) == 1
    report = json.loads(_read(tmp_path / "t.json"))
    assert report["certificate"]["verdict"] == "certified_invertible"
    assert report["reference_value"] == spectral.mahler_quadrature(
        parse_laurent("5 - x - x^-1 - y - y^-1", 2), 64
    ).value


def test_algebraic_rank1_reference_computes_no_quadrature(monkeypatch):
    # the reference on rank 1 is Jensen's: the scan gives the certificate alone
    made = []
    real = spectral.MahlerEstimate
    monkeypatch.setattr(spectral, "MahlerEstimate",
                        lambda **kw: made.append(kw["method"]) or real(**kw))
    scans = _spy(monkeypatch, spectral, "_grid_values")
    assert main(["algebraic", "--poly", "3 - x - x^-1", "--quotients", "1..4"]) == 0
    assert len(scans) == 1
    assert made == ["jensen"]


@pytest.mark.parametrize("argv, code, message", [
    (["--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1", "--moduli", "3,3",
      "--moduli", "2,2"], 2, "error: quotients must be ordered by nondecreasing size\n"),
    (["--poly", "3 - x - x^-1", "--quotients", "1..100000"], 4,
     "resource guard: estimated cost at Z/13424 exceeds the cap 1000000000: "
     "companion work 1000065313 at Z/13424, split work 1000717536 and prime supply "
     "6534528 at Z/1358\n"),
    (["--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1", "--quotients", "1..1000"], 4,
     "resource guard: estimated cost at Z/"),
    (["--poly", "3 - x - x^-1", "--quotients", "1..300", "--grid", "1"], 2,
     "error: grid must be >= 2 points per axis\n"),
    (["--poly", "3 - x - x^-1", "--quotients", "1..300", "--grid", "0"], 2,
     "error: grid must be >= 2 points per axis\n"),
    (["--poly", "3 - x - x^-1", "--quotients", "1..300", "--grid", "10000000"], 4,
     "resource guard: torus grid of 10000000 points exceeds the grid cap 4194304\n"),
    (["--group", "H", "--poly", "x", "--quotients", "1..3"], 2,
     "error: unknown group 'H'; use Z, Z2, Z3, Z4, or file:<path>\n"),
    (["--group", "file:no-such-chain.json"], 2,
     "error: cannot read quotient chain 'no-such-chain.json': [Errno 2] No such file or "
     "directory: 'no-such-chain.json'\n"),
    (["--quotients", "1..3"], 2, "error: --poly is required for torus groups\n"),
    (["--poly", "x - x", "--quotients", "1..3"], 2,
     "error: the zero element has no principal algebraic action\n"),
    (["--poly", "3 - x", "--quotients", "1..3", "--moduli", "3"], 2,
     "error: give either --quotients or --moduli, not both\n"),
    (["--group", "Z2", "--poly", "5 - x", "--moduli", "3"], 2,
     "error: --moduli '3' has 1 entries, expected 2\n"),
    (["--poly", "3 - x", "--moduli", "3,x"], 2,
     "error: expected comma-separated integers, got '3,x'\n"),
    (["--poly", "3 - x"], 2, "error: a quotient range (--quotients a..b) is required\n"),
    (["--poly", "3 - x", "--quotients", "1-3"], 2,
     "error: quotient range must look like a..b, got '1-3'\n"),
    (["--poly", "3 - x", "--quotients", "0..3"], 2,
     "error: quotient range must satisfy 1 <= a <= b, got '0..3'\n"),
    (["--poly", "3 - x", "--quotients", "5..3"], 2,
     "error: quotient range must satisfy 1 <= a <= b, got '5..3'\n"),
    (["--poly", "3 - x - x^-1", "--quotients", "1..1000001"], 4,
     "resource guard: quotient range '1..1000001' holds 1000001 values, over the cap 1000000\n"),
    # the rank-2 reference is a quadrature, which needs an even grid >= 4
    (["--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1", "--quotients", "2..4",
      "--grid", "5"], 2, "error: grid must be an even integer >= 4\n"),
], ids=["unordered", "rank-1 trace over the cap", "rank-2 trace over the cap", "grid of 1",
        "grid of 0", "grid over the cap", "unknown group", "unreadable chain",
        "torus without poly", "zero f", "quotients and moduli", "moduli of the wrong length",
        "moduli not integers", "no quotients", "range without dots", "range from 0",
        "decreasing range", "range over the coset cap", "odd grid at rank 2"])
def test_algebraic_refuses_before_any_scan_or_prime(capsys, monkeypatch, argv, code, message):
    scans = _spy(monkeypatch, spectral, "_grid_values")
    drawn = _spy(monkeypatch, algebraic, "_character_primes")
    walks = _spy(monkeypatch, companion.Companion, "counts")
    assert main(["algebraic", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert scans == [] and drawn == [] and walks == []


def test_refused_rank1_reference_is_named_in_the_caveats(capsys, monkeypatch):
    # Jensen's root finder refuses degree 70: the counts stay (from the split,
    # which prices D = 70 lower), and the refusal is the last caveat
    walks = _spy(monkeypatch, companion.Companion, "counts")
    argv = ["algebraic", "--poly", "3 - x - x^70", "--quotients", "1..3", "--format", "json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    note = "no reference value: degree 70 exceeds root-finder cap 64"
    assert obj["reference_value"] is None and obj["residual"] is None
    assert obj["caveats"][-1] == note
    assert captured.err.endswith(f"caveat: {note}\n")
    assert walks == []
    f = parse_laurent("3 - x - x^70", 1)
    assert [r["log_fix_count"] for r in obj["records"]] == [
        algebraic.log_big_int(algebraic.fix_count(f, torus_quotient([n])).value) for n in (1, 2, 3)
    ]
    assert main(["mahler", "--poly", "3 - x - x^70"]) == 2


def test_algebraic_builds_no_quotient_past_the_refused_one(capsys, monkeypatch):
    # the trace draws its quotients one at a time and is refused at Z/13424,
    # where the companion walk passes the cap (the split passed it at
    # Z/1358), so the 986,576 after it are never built
    built = _spy(monkeypatch, cli, "torus_quotient")
    argv = ["algebraic", "--poly", "3 - x - x^-1", "--quotients", "1..1000000"]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        "resource guard: estimated cost at Z/13424 exceeds the cap 1000000000: "
        "companion work 1000065313 at Z/13424, split work 1000717536 and prime supply "
        "6534528 at Z/1358\n"
    )
    assert len(built) == 13424


def test_sofic_check_counts_rows_before_building_quotients(capsys, monkeypatch):
    built = _spy(monkeypatch, cli, "torus_quotient")
    argv = ["sofic-check", "--quotients", "1..1000000", "--elements", "1;2"]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        "resource guard: 2000000 report rows (2 pairs of elements, 1000000 quotients) "
        "exceed the cap 100000\n"
    )
    assert built == []


@pytest.mark.parametrize("argv", [
    ["algebraic", "--poly", "3 - x - x^-1"],
    ["sofic-check", "--elements", "1;2"],
    ["subshift", "--sft", "{sft}"],
], ids=["algebraic", "sofic-check", "subshift"])
def test_a_range_over_the_coset_cap_is_refused_before_it_is_listed(tmp_path, argv):
    # in a child held to 2 GB of address space, so that listing 10^9 values
    # fails fast instead of stalling the suite
    import os
    import resource
    import subprocess
    from pathlib import Path

    import sofic

    sft = tmp_path / "golden_mean.json"
    sft.write_text(json.dumps(subshift.golden_mean().to_json_obj()), encoding="utf-8")
    src = str(Path(sofic.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    args = [a.format(sft=sft) for a in argv] + ["--quotients", "1..1000000000"]
    proc = subprocess.run([sys.executable, "-m", "sofic", *args], capture_output=True,
                          env=env, preexec_fn=limit, timeout=120)
    assert proc.returncode == 4, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "resource guard: quotient range '1..1000000000' holds 1000000000 values, "
        "over the cap 1000000\n"
    )


def test_algebraic_refuses_shrinking_chain(tmp_path, capsys):
    chain = {"poly": {"e": 3, "a": -1}, "quotients": [
        {"label": f"C{n}", "table": cyclic_table(n), "images": {"a": 1}} for n in (4, 2)
    ]}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    rc = main(["algebraic", "--group", f"file:{chain_path}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "nondecreasing" in captured.err


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


ALTERNATING_JSON = json.dumps(
    {"alphabet": [0, 1], "window": [0, 1], "allowed": [[0, 1], [1, 0]]}
)

AGREEMENT_CASES = {
    "algebraic": (
        ["algebraic", "--group", "Z", "--poly", "3 - x - x^-1", "--quotients", "1..8"],
        "records",
    ),
    # odd cycles have no labeling: h_n is -inf in CSV and null in JSON
    "subshift": (
        ["subshift", "--sft", "{alternating}", "--quotients", "1..5", "--budget", "0,1"],
        "rows",
    ),
    # the Jensen row has no grid: an empty cell and null
    "mahler": (["mahler", "--group", "Z", "--poly", "3 - x - x^-1", "--grid", "256"],
               "estimates"),
    # the label needs quoting in CSV
    "sofic-check": (
        ["sofic-check", "--group", "file:{chain}", "--elements", "a;a^2;a^6"],
        "rows",
    ),
}


@pytest.mark.parametrize("command", sorted(AGREEMENT_CASES))
def test_csv_json_numeric_fields_agree(tmp_path, command):
    paths = {"alternating": tmp_path / "alternating.json", "chain": tmp_path / "chain.json"}
    paths["alternating"].write_text(ALTERNATING_JSON, encoding="utf-8")
    paths["chain"].write_text(
        json.dumps({"quotients": [
            {"label": "C5, a -> 1", "table": cyclic_table(5), "images": {"a": 1}}
        ]}),
        encoding="utf-8",
    )
    template, table = AGREEMENT_CASES[command]
    base = [arg.format(**paths) for arg in template]
    csv_out = tmp_path / "t.csv"
    json_out = tmp_path / "t.json"
    assert main(base + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
    reader = csv.DictReader(io.StringIO(_read(csv_out), newline=""))
    csv_rows = list(reader)
    json_rows = json.loads(_read(json_out))[table]
    assert csv_rows and len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert list(c) == list(j) == reader.fieldnames
        for column, value in j.items():
            if value is None:
                assert c[column] in (("", "-inf") if column == "h_n" else ("",)), column
            elif isinstance(value, str):
                assert c[column] == value, column
            else:
                assert c[column] == repr(value), column


def test_report_rows_are_named_tuples_of_their_columns(tmp_path, capsys):
    # the writer takes a row as the tuple of its cells in column order, so the
    # fields are the report's columns; the rows stay immutable, with the repr
    # they had as frozen dataclasses
    assert subshift.TableRow._fields == ("n", "budget", "count", "h_n", "method")
    assert algebraic.TraceRecord._fields == ("label", "d", "log_fix_count", "h_n")
    assert algebraic.SkippedQuotient._fields == ("label", "d", "nullity")
    row = subshift.subshift_entropy_table(subshift.golden_mean(), [4]).rows[0]
    assert repr(row) == (
        f"TableRow(n=4, budget=0, count=7, h_n={math.log(7) / 4!r}, method='transfer_matrix')"
    )
    trace = algebraic.entropy_trace(parse_laurent("x - 1", 1), [torus_quotient([1])])
    assert repr(trace.skipped[0]) == "SkippedQuotient(label='Z/1', d=1, nullity=1)"
    record = algebraic.entropy_trace(parse_laurent("3", 1), [torus_quotient([2])]).records[0]
    assert repr(record) == (
        f"TraceRecord(label='Z/2', d=2, log_fix_count={math.log(9)!r}, h_n={math.log(3)!r})"
    )
    for held, name in ((row, "count"), (record, "h_n"), (trace.skipped[0], "nullity")):
        with pytest.raises(AttributeError):
            setattr(held, name, 0)
    # a count of 0 writes h_n as -inf in CSV and null in JSON
    sft_path = tmp_path / "alternating.json"
    sft_path.write_text(ALTERNATING_JSON, encoding="utf-8")
    argv = ["subshift", "--sft", str(sft_path), "--quotients", "3..3", "--format"]
    assert main(argv + ["csv"]) == 0
    assert capsys.readouterr().out == "n,budget,count,h_n,method\n3,0,0,-inf,transfer_matrix\n"
    assert main(argv + ["json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"n": 3, "budget": 0, "count": 0, "h_n": None, "method": "transfer_matrix"}
    ]


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_successive_commands_write_what_each_writes_alone(tmp_path, capsys):
    # one cached parser serves every call: no subcommand's flags or defaults
    # leak into the next call's report
    sft_path = tmp_path / "gm.json"
    sft_path.write_text(GM_JSON, encoding="utf-8")
    runs = [
        ["subshift", "--sft", str(sft_path), "--quotients", "2..6", "--budget", "0,1"],
        ["mahler", "--group", "Z2", "--poly", "5 - x - x^-1 - y - y^-1", "--grid", "16",
         "--format", "json"],
        ["algebraic", "--poly", "3 - x - x^-1", "--quotients", "1..5"],
        ["sofic-check", "--quotients", "3..4", "--elements", "1;2"],
    ]
    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr()))
    for order in (runs, runs[::-1]):
        cli.build_parser.cache_clear()
        together = [(main(argv), capsys.readouterr()) for argv in order]
        assert together == [alone[runs.index(argv)] for argv in order]


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


def test_explicit_chain_run_skips_numpy_ma(tmp_path):
    # np.unique imports numpy.ma in numpy 2 (about 10 ms per process); the
    # table checks and the split plan mark hits in boolean masks instead
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sofic

    table, a, b = sl2_table(5)
    chain = {"poly": {"e": 5, "a": -1, "a^-1": -1, "b": -1, "b^-1": -1},
             "quotients": [{"label": "SL(2,5), true", "table": table, "images": {"a": a, "b": b}}]}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    src = str(Path(sofic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from sofic.cli import main\n"
        "assert main(['algebraic', '--group', 'file:' + sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-c", code, str(chain_path), str(out)]
    proc = subprocess.run(argv, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").startswith("label,d,")


def test_import_leaves_the_companion_walk_unloaded():
    # importing the package, which the bench times as set-up, loads no
    # companion code: a subshift table loads it only once a length passes
    # D, here 2 states at budget 0
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sofic

    src = str(Path(sofic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import sofic, sofic.cli\n"
        "assert 'sofic.companion' not in sys.modules\n"
        "sofic.subshift_entropy_table(sofic.golden_mean(), [1, 2])\n"
        "assert 'sofic.companion' not in sys.modules\n"
        "assert sofic.subshift_entropy_table(sofic.golden_mean(), [3]).rows[0].count == 4\n"
        "assert 'sofic.companion' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr

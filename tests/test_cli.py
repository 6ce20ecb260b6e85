import json
from fractions import Fraction
from pathlib import Path

import pytest

import rank2chern.cli as cli
import rank2chern.genfun as gf
import rank2chern.relations as relations
from rank2chern.algebra import ElementParseError
from rank2chern.cli import main
from rank2chern.genfun import BiPoly, BiRational
from rank2chern.relations import VerificationError, omega_from_ideal, report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_integral_gamma(capsys):
    code, out = run(capsys, "integral", "--genus", "2", "gamma")
    assert code == 0
    assert out.strip() == "-1"


def test_integral_respects_normalization(capsys):
    code, out = run(capsys, "integral", "--genus", "2", "--normalization", "7/3", "gamma")
    assert code == 0
    assert out.strip() == "-7/3"


def test_integral_parse_error_exit_2(capsys):
    code = main(["integral", "--genus", "2", "not an element ++"])
    assert code == 2


def test_unknown_flag_exit_2(capsys):
    assert main(["omega", "--bogus-flag"]) == 2
    assert main(["no-such-command"]) == 2


def test_genus_out_of_range_exit_2(capsys):
    code = main(["omega", "--genus", "11"])
    assert code == 2


def test_omega_json_roundtrip(capsys):
    code, out = run(capsys, "omega", "--genus", "2", "--d", "1", "--max-coh", "8", "--format", "json")
    assert code == 0
    assert json.loads(out) == omega_from_ideal(2, 1, 8).to_json_dict()


def test_omega_routes_agree(capsys):
    _, out_ideal = run(capsys, "omega", "--genus", "2", "--format", "json")
    _, out_pairing = run(capsys, "omega", "--genus", "2", "--route", "pairing", "--format", "json")
    _, out_closed = run(capsys, "omega", "--genus", "2", "--route", "closed", "--max-coh", "6", "--format", "json")
    t1, t2, t3 = (json.loads(out)["table"] for out in (out_ideal, out_pairing, out_closed))
    assert t1 == t2 == t3


def test_omega_csv_format(capsys):
    code, out = run(capsys, "omega", "--genus", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coh,chern,dim"
    assert "6,4,1" in lines


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "relations", "--genus", "2", "--max-coh", "6", "--format", "json")
    _, out2 = run(capsys, "relations", "--genus", "2", "--max-coh", "6", "--format", "json")
    assert out1 == out2


def test_relations_dump_reparses(capsys):
    from rank2chern.algebra import parse_element

    code, out = run(capsys, "relations", "--genus", "2", "--max-coh", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 2
    seen = 0
    for entry in data["slices"]:
        for text in entry["relations"]:
            elem = parse_element(text, 2)
            assert elem.bidegree() == (entry["coh"], entry["chern"])
            seen += 1
    assert seen > 0


def test_sl2_subcommand_json(capsys):
    code, out = run(capsys, "sl2", "--check", "relations", "--genus", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["cases"] > 0
    assert data["failures"] == []


def test_genfun_check_and_expand(capsys):
    code, out = run(
        capsys, "genfun", "--formula", "n21", "--genus", "2", "--check", "all", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert all(row["pass"] for row in data["checks"])

    code, out = run(
        capsys, "genfun", "--formula", "intermediate", "--genus", "2", "--d", "1",
        "--expand", "6", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "qExp,tExp,coeff"


def test_genfun_symmetry_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.gf, "check_shift_symmetry", lambda *args: False)
    code, out = run(capsys, "genfun", "--formula", "n21", "--genus", "2", "--check", "symmetry")
    assert code == 1
    assert out == "symmetry (n21, genus 2): FAIL\n"


def test_omega_closed_refuses_a_coefficient_that_is_no_dimension(monkeypatch, capsys):
    half = BiRational(BiPoly.const(Fraction(1, 2)))
    monkeypatch.setattr(cli.gf, "omega_closed_form", lambda g, d=0: half)
    code = main(["omega", "--route", "closed"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: ") and "q^0 t^0" in err


def test_sl2_and_verify_print_one_witness_text(monkeypatch, capsys):
    witness = {"where": "bd=(2, 2)", "expected": "1", "got": "2"}
    monkeypatch.setattr(cli, "check_descent", lambda g, d: report("check", "descent", g, d, 5, [witness]))
    monkeypatch.setattr(cli, "run_suites", lambda *args: [report("suite", "main", 2, 0, 8, [witness])])
    line = "  failure at bd=(2, 2): expected 1, got 2\n"
    assert run(capsys, "sl2", "--check", "descent") == (1, "descent: genus=2 d=0 cases=5 FAIL\n" + line)
    assert run(capsys, "verify", "--suite", "main") == (1, "FAIL: suite=main genus=2 d=0 cases=8\n" + line)


def test_verify_main_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "main", "--genus", "2")
    assert code == 0
    assert out.startswith("pass: suite=main")


def test_verify_scale_invariance(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "pairing", "--genus", "2")
    code2, out2 = run(
        capsys, "verify", "--suite", "pairing", "--genus", "2", "--normalization", "7/3"
    )
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("genus", [5, 6, 7, 8])
def test_verify_pairing_suite_to_genus_8(capsys, genus):
    # the table routes and the kernel match all run per Lefschetz summand
    code, out = run(capsys, "verify", "--suite", "pairing", "--genus", str(genus))
    assert code == 0
    assert out.startswith("pass: suite=pairing")


@pytest.mark.parametrize(
    "argv",
    [
        "sl2 --check descent --genus 2 --max-coh 3",
        "sl2 --check closure --genus 2 --d 2",
        "sl2 --check adjoint --genus 2 --d 1",
        "sl2 --check relations --genus 2 --max-coh -1",
        "sl2 --check relations --genus 2 --d -1",
        "omega --genus 2 --max-coh -5",
        "relations --genus 2 --d -1",
        "verify --suite main --genus 2 --d -1",
        "genfun --formula stack --rank 1",
        "genfun --formula n21 --rank 5 --check symmetry",
        "genfun --formula rank3 --rank 7 --check all",
        "genfun --formula intermediate --rank 3 --expand 4",
        "genfun --genus 3",
        "genfun --formula stack --rank 3 --format json",
        "genfun --expand -1",
        "integral --genus 2 --normalization 0 gamma",
        "omega --genus 2 --route pairing --max-coh 5",
        "omega --genus 2 --route pairing --d 1",
        "integral --genus 2 alpha^" + "9" * 5000,
        "integral --genus 2 " + "9" * 5000 + "alpha",
        "integral --genus 2 psi" + "1" * 5000,
        "integral --genus 2 --normalization 1e5000 gamma",
        "integral --genus 2 --normalization 1e-5000 gamma",
        "integral --genus 2 --normalization " + "9" * 4300 + " 3gamma",
        "omega --genus 2 --route ideal --normalization 7/3",
        "omega --genus 2 --route closed --normalization 7/3",
        "relations --genus 2 --normalization 7/3",
        "relations --genus 2 --normalization 1",
        "sl2 --check relations --genus 2 --normalization 7/3",
        "sl2 --check descent --genus 2 --normalization 7/3",
        "sl2 --check closure --genus 2 --normalization 7/3",
        "verify --suite intermediate --genus 2 --normalization 7/3",
        "verify --suite closure --genus 2 --normalization 7/3",
        "verify --suite genfun --normalization 7/3",
        "verify --suite main --genus 2 --d 3",
        "verify --suite pairing --genus 2 --d 1",
        "verify --suite closure --genus 2 --d 2",
        "verify --suite genfun --d 1",
        "verify --suite main --genus 2 --max-coh 4",
        "verify --suite main --genus 2 --max-coh 0",
        "verify --suite pairing --genus 2 --max-coh 4",
        "verify --suite closure --genus 2 --max-coh 4",
        "verify --suite genfun --max-coh 4",
        "verify --suite sl2 --genus 2 --d 1 --normalization 7/3",
        "genfun --check symmetry --d 3",
        "genfun --formula stack --d 1 --expand 4",
        "genfun --formula rank3 --d 1 --check tminus1",
        "genfun --formula stack --rank 3 --check unimodal",
        "genfun --formula stack --check zagier",
        "genfun --formula rank3 --check unimodal",
        "genfun --formula rank3 --check zagier",
        "genfun --formula intermediate --d 2 --check symmetry",
        "relations --genus 2 --format csv",
        "sl2 --check relations --genus 2 --format csv",
        "verify --suite genfun --format csv",
        "verify --suite genfun --genus 5",
    ],
    ids=lambda argv: argv[:60],
)
def test_invalid_input_exit_2(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "omega --genus 2 --route pairing",
        "sl2 --check adjoint --genus 2",
        "verify --suite main --genus 2",
        "verify --suite sl2 --genus 2",
    ],
)
def test_paths_that_use_normalization_accept_it(capsys, argv):
    # every structural output is invariant under B -> 7/3 B
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert run(capsys, *argv.split(), "--normalization", "7/3") == (code, out)


def test_zero_case_report_fails(capsys, monkeypatch):
    report = relations.report("check", "descent", 2, 0, 0, [])
    assert report["cases"] == 0 and report["pass"] is False
    monkeypatch.setattr(cli, "check_descent", lambda g, d: report)
    code, out = run(capsys, "sl2", "--check", "descent", "--genus", "2")
    assert code == 1
    assert out.startswith("descent: genus=2 d=0 cases=0 FAIL")


def _readme_genfun_checks(formula, d):
    """The checks the README's genfun --check table marks yes for a path."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("| `")
    ]
    names = [cell.strip("`") for cell in header[1:]]
    table = {row[0]: [n for n, cell in zip(names, row[1:]) if cell == "yes"] for row in rows}
    if formula == "intermediate":
        return table["`intermediate` at `--d` ≥ 1" if d else "`intermediate` at `--d 0`"]
    return table["`n21`" if formula == "n21" else "`stack`, `rank3`"]


@pytest.mark.parametrize(
    "argv,checks",
    [
        ("genfun --formula stack --rank 3 --check all", ["symmetry", "tminus1"]),
        ("genfun --formula rank3 --check all", ["symmetry", "tminus1"]),
        ("genfun --formula n21 --check all", ["symmetry", "tminus1", "unimodal", "zagier"]),
        ("genfun --formula intermediate --check all", ["symmetry", "tminus1", "unimodal", "zagier"]),
        ("genfun --formula stack --check all", ["symmetry", "tminus1"]),
        ("genfun --formula intermediate --d 0 --check all", ["symmetry", "tminus1", "unimodal", "zagier"]),
        ("genfun --formula intermediate --d 1 --check all", ["tminus1"]),
    ],
)
def test_genfun_check_all_runs_the_checks_that_apply(capsys, argv, checks):
    # the checks run are the names of the catalogue, which the README lists
    code, out = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert [row["check"] for row in json.loads(out)["checks"]] == checks
    args = cli.build_parser().parse_args(argv.split())
    assert list(gf.identities(args.formula, 2, args.rank or 2, args.d)) == checks
    assert _readme_genfun_checks(args.formula, args.d) == checks


def test_one_catalogue_serves_genfun_check_and_the_genfun_suite(capsys, monkeypatch):
    # a broken identity function fails both paths, which read it at call time
    monkeypatch.setattr(gf, "check_shift_symmetry", lambda *args: False)
    code, out = run(capsys, "verify", "--suite", "genfun", "--format", "json")
    assert code == 1
    (rep,) = json.loads(out)
    assert rep["pass"] is False and rep["cases"] == 123
    assert rep["failures"][0]["where"] == "symmetry, stack r=2, g=2"
    code, out = run(capsys, "genfun", "--formula", "rank3", "--check", "symmetry")
    assert code == 1
    assert out == "symmetry (rank3, genus 2): FAIL\n"


@pytest.mark.parametrize(
    "argv",
    [
        "genfun --formula intermediate --d 1 --check all",
        "genfun --formula intermediate --d 2 --check tminus1",
    ],
)
def test_genfun_tminus1_at_d(capsys, argv):
    # at every d the t = -1 value of the intermediate series is (1-q^2)^(2g-2)
    code, out = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    d = int(argv.split()[4])
    assert json.loads(out)["checks"] == [
        {"check": "tminus1", "formula": "intermediate", "genus": 2, "d": d, "pass": True}
    ]


def test_dependent_relation_family_fails(capsys, monkeypatch):
    # each invariant-ring family listed twice makes every slice that has one
    # dependent; at g = 2 the slice (5, 4) holds alpha^2 sigma_1
    original = relations._invariant_families

    def twice(g, d, bd):
        return [family for family in original(g, d, bd) for _ in range(2)]

    monkeypatch.setattr(relations, "_invariant_families", twice)
    relations._invariant_relations.cache_clear()  # else a memoised slice skips the freeness check
    try:
        with pytest.raises(VerificationError, match="dependent"):
            relations.ideal_slice(2, 0, (5, 4))
        assert main(["relations", "--genus", "2"]) == 1
    finally:
        relations._invariant_relations.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "relation family dependent" in captured.err


@pytest.mark.parametrize(
    "error,code",
    [
        (VerificationError("modified relation routes disagree"), 1),
        (ElementParseError("bad element"), 2),
    ],
)
def test_route_error_exit_codes(capsys, monkeypatch, error, code):
    def route(*args):
        raise error

    monkeypatch.setattr(cli, "omega_from_ideal", route)
    assert main(["omega", "--genus", "2"]) == code


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def route(*args):
        raise ValueError("division is not exact")

    monkeypatch.setattr(cli, "omega_from_ideal", route)
    with pytest.raises(ValueError, match="not exact"):
        main(["omega", "--genus", "2"])

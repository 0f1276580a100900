import json
from pathlib import Path

import pytest

from dihedral_mckay import cli, hilb, verify
from dihedral_mckay.exactnum import NotRational

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quiver_dot_star(capsys):
    code, out, _ = run(capsys, "quiver", "--n", "4", "--format", "dot")
    assert code == 0
    assert '"rho1" -- "rho2\'" [label="1"];' in out
    assert out.count("--") == 4


def test_fixed_points_json(capsys):
    code, out, _ = run(capsys, "fixed-points", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "fixed-points" and doc["n"] == 5
    assert len(doc["payload"]) == 1
    assert doc["payload"][0]["point"] == "I2(0:1)"


def test_outputs_are_deterministic(capsys):
    results = []
    for _ in range(2):
        code, out, _ = run(capsys, "socle-table", "--n", "6")
        assert code == 0
        results.append(out)
    assert results[0] == results[1]
    for _ in range(2):
        code, out, _ = run(capsys, "taut-table", "--n", "5")
        assert code == 0
        results.append(out)
    assert results[2] == results[3]


def test_chartable_formats(capsys):
    code, out, _ = run(capsys, "chartable", "--n", "4")
    doc = json.loads(out)
    assert [c["name"] for c in doc["payload"]["characters"]] == [
        "rho0",
        "rho0'",
        "rho1",
        "rho2",
        "rho2'",
    ]
    code, out, _ = run(capsys, "chartable", "--n", "4", "--format", "table")
    assert code == 0 and out.startswith("rep\t")


def test_hilb_atlas_and_chain(capsys):
    code, out, _ = run(capsys, "hilb-atlas", "--n", "4")
    doc = json.loads(out)
    assert len(doc["payload"]["charts"]) == 4
    code, out, _ = run(capsys, "chain", "--n", "6")
    doc = json.loads(out)
    assert len(doc["payload"]) == 4  # m + 1 configurations


def test_strict_transforms_cli(capsys):
    code, out, _ = run(capsys, "strict-transforms", "--n", "5")
    doc = json.loads(out)
    rows = {(r["boundary"], r["chart"]): r for r in doc["payload"]}
    assert rows[("B3", "Ainv")]["certificate"]["multiplicity"] == 2


def test_refdiv_flags(capsys):
    code, out, _ = run(capsys, "refdiv", "--n", "5")
    doc = json.loads(out)
    assert doc["payload"]["k"] == 2
    code, out, _ = run(capsys, "refdiv", "--n", "5", "--k", "1")
    assert json.loads(out)["payload"]["k"] == 1


def test_socle_table_with_theta(capsys):
    # rho0, rho0', rho1, rho2 for n = 5 (leading dash needs the = form)
    code, out, _ = run(capsys, "socle-table", "--n", "5", "--theta=-6,2,1,1")
    assert code == 0
    doc = json.loads(out)
    verdicts = [row.get("theta") for row in doc["payload"] if "theta" in row]
    assert verdicts and all(v["verdict"] in ("destabilized-by", "no-violation-found") for v in verdicts)


def test_usage_errors_exit_1(capsys):
    assert cli.main(["quiver"]) == 1
    capsys.readouterr()
    assert cli.main(["quiver", "--n", "2"]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "--n-range", "8..4"]) == 1
    capsys.readouterr()
    assert cli.main(["socle-table", "--n", "5", "--theta", "1,2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["socle-table", "--n", "5", "--alpha", "1/0"], "--alpha: '1/0' is not a rational number"),
        (["socle-table", "--n", "5", "--alpha", "half"], "--alpha: 'half' is not a rational number"),
        (["socle-table", "--n", "5", "--alpha", "0"], "--alpha must avoid 0 and +-1"),
        (["socle-table", "--n", "5", "--alpha=-1"], "--alpha must avoid 0 and +-1"),
        (["socle-table", "--n", "5", "--theta=1,1,1/0,1"], "--theta: '1/0' is not a rational"),
        (["refdiv", "--n", "6", "--k", "4"], "--k must lie in 1..3 for n = 6"),
        (["refdiv", "--n", "7", "--k", "0"], "--k must lie in 1..3 for n = 7"),
        (["verify", "--n-range", "3-6"], "bad range '3-6', expected A..B"),
        (["socle-table", "--n", "3", "--theta=1,1,1"], "theta(C[G]) = 4 != 0"),
    ],
)
def test_bad_option_values_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "--family: [Errno 2]"),
        ("[[[1, 0", "--family: Expecting"),
        ("[5]", "--family must be a JSON list of seed-vector lists"),
        ('[[["x"]]]', "--family: 'x' is not a rational number"),
        # a string or an object of the module's dimension 10 is not a vector
        ('[["1000000000"]]', "--family must be a JSON list of seed-vector lists"),
        (
            json.dumps([[{str(i): int(i == 0) for i in range(10)}]]),
            "--family must be a JSON list of seed-vector lists",
        ),
    ],
    ids=["missing", "malformed", "not-nested", "not-rational", "string-vector", "object-vector"],
)
def test_bad_family_files_are_usage_errors(capsys, tmp_path, content, message):
    family = tmp_path / "family.json"
    if content is not None:
        family.write_text(content)
    code, out, err = run(
        capsys, "socle-table", "--n", "5", "--theta=3,1,-3,1", "--family", str(family)
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and message in err


def test_family_without_theta_is_a_usage_error(capsys, tmp_path):
    """Seeds only feed the theta check: a family file without --theta is
    refused before it is read, whether it exists or not, and the default
    family without --theta prints what no option prints."""
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_N5))
    for path in ("/nonexistent/file.json", str(family)):
        code, out, err = run(capsys, "socle-table", "--n", "5", "--family", path)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and "--theta" in err
    code, plain, _ = run(capsys, "socle-table", "--n", "5")
    assert code == 0
    assert run(capsys, "socle-table", "--n", "5", "--family", "default") == (0, plain, "")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "quiver", "--n", "5", "--out", str(tmp_path / "no" / "q.json"))
    assert code == 1 and err.startswith("usage error: --out: ")


def test_internal_failures_are_not_usage_errors(capsys, monkeypatch):
    # NotRational is a ValueError subclass; it must not read as a usage error
    def irrational(n):
        raise NotRational("irrational value: t + t^4")

    monkeypatch.setattr(cli, "mckay_quiver", irrational)
    code, out, err = run(capsys, "quiver", "--n", "5")
    assert code == 2 and out == ""
    assert err == "error: NotRational: irrational value: t + t^4\n"


def test_verify_exit_codes(capsys, monkeypatch, tmp_path):
    code = cli.main(["verify", "--n-range", "3..4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 11 and "11/11" in out
    # a failing criterion flips the exit code to 2 with a readable report
    def failing(n_range=None):
        return {"id": 0, "name": "stub", "passed": False, "details": "forced"}

    monkeypatch.setattr(verify, "CRITERIA", [failing])
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--n-range", "3..4", "--out", str(report)])
    capsys.readouterr()
    assert code == 2
    doc = json.loads(report.read_text())
    assert doc["payload"][0]["passed"] is False


def test_verify_fails_a_range_outside_every_published_range(capsys):
    """No criterion meets 101..110, so each is a FAIL line naming the
    requested range and its own published range, and the run exits 2."""
    code = cli.main(["verify", "--n-range", "101..110"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("FAIL") == 11 and "0/11 criteria passed" in out
    assert (
        "FAIL criterion 1: character tables - raised ValueError: "
        "requested n range 101..110 misses the published range 3..100"
    ) in out
    assert "requested n range 101..110 misses the published range 3..10\n" in out


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "quiver.json"
    code = cli.main(["quiver", "--n", "6", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "quiver" and doc["n"] == 6


@pytest.mark.parametrize("vec", [[0] * 8 + [1], [1]], ids=["9-entries", "1-entry"])
def test_family_seed_length_is_checked(capsys, tmp_path, vec):
    family = tmp_path / "family.json"
    family.write_text(json.dumps([[vec]]))
    code, out, err = run(
        capsys, "socle-table", "--n", "3", "--theta=1,1,-1", "--family", str(family)
    )
    assert code == 1 and out == ""
    assert f"has {len(vec)} entries" in err
    assert "every module of the socle table has dimension 6" in err


# dense seeds of length 2n = 10; golden stdout generated before the file
# was loaded once per run instead of once per stratum
FAMILY_N5 = [
    [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]],
    [[0, 0, 0, 1, 0, 0, 0, 0, 0, 0]],
    [[0, 1, 1, 0, 0, 0, 0, 0, 0, 0]],
    [[0, 0, 0, 0, 0, 1, 0, -1, 0, 0]],
    [[0, 0, 0, 0, 0, 0, 0, 0, "1/2", 1]],
]


def test_family_file_is_loaded_once(capsys, tmp_path, monkeypatch):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_N5))
    loads = []
    real_load = json.load

    def counting_load(fh, **kwargs):
        loads.append(fh.name)
        return real_load(fh, **kwargs)

    monkeypatch.setattr(cli.json, "load", counting_load)
    code, out, _ = run(
        capsys, "socle-table", "--n", "5", "--theta=3,1,-3,1", "--family", str(family)
    )
    assert code == 0
    assert loads == [str(family)]
    assert out.count('"theta"') == 4  # one verdict per stratum E1, E2, E1&E2, E2&B3
    assert out.encode("utf-8") == (GOLDEN / "socle-table_n5_family.json").read_bytes()


def test_a_family_with_no_proper_closure_finds_no_violation(capsys, tmp_path):
    """Basis vector 0 generates every generic module at n = 5 (tau swaps its
    rows), so that one-seed family finds no destabilizer on E1, E2 or E1&E2;
    in the fixed-point module E2&B3 it spans one row only."""
    family = tmp_path / "family.json"
    family.write_text(json.dumps([[[1] + [0] * 9]]))
    code, out, _ = run(
        capsys, "socle-table", "--n", "5", "--theta=3,1,-3,1", "--family", str(family)
    )
    assert code == 0
    verdicts = {row["stratum"]: row["theta"]["verdict"] for row in json.loads(out)["payload"]
                if "theta" in row}
    assert verdicts == {
        "E1": "no-violation-found",
        "E2": "no-violation-found",
        "E1&E2": "no-violation-found",
        "E2&B3": "destabilized-by",
    }


def test_verify_fails_closed_on_a_raising_criterion(capsys, monkeypatch):
    def raising(n_range=None):
        raise hilb.CertificateFailure("W_2 pairings differ")

    criteria = list(verify.CRITERIA)
    criteria[9] = raising
    monkeypatch.setattr(verify, "CRITERIA", criteria)
    code, out, err = run(capsys, "verify", "--n-range", "3..4")
    assert code == 2
    assert "Traceback" not in out + err and err == ""
    assert (
        "FAIL criterion 10: tautological ledgers - raised CertificateFailure: W_2 pairings differ"
        in out
    )
    assert out.count("PASS") == 10 and "10/11 criteria passed" in out

    code, out, _ = run(capsys, "verify", "--n-range", "3..4", "--format", "json")
    assert code == 2
    doc = json.loads(out[out.index("{"):])
    failed = [r for r in doc["payload"] if not r["passed"]]
    assert failed == [
        {
            "id": 10,
            "name": "tautological ledgers",
            "passed": False,
            "details": "raised CertificateFailure: W_2 pairings differ",
        }
    ]


@pytest.mark.parametrize(
    "argv, formats",
    [
        (["refdiv", "--n", "5", "--format", "dot"], "'json'"),
        (["chartable", "--n", "5", "--format", "dot"], "'json', 'table'"),
        (["quiver", "--n", "5", "--format", "table"], "'json', 'dot'"),
    ],
)
def test_format_a_subcommand_cannot_emit_is_a_usage_error(capsys, argv, formats):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    fmt = argv[-1]
    assert err == f"usage error: argument --format: invalid choice: '{fmt}' (choose from {formats})\n"

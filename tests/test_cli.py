from pathlib import Path

import pytest
from click.testing import CliRunner

from extraconn.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def runner():
    return CliRunner()


def test_xi_command(runner):
    result = runner.invoke(main, ["xi", "--n", "5", "--family", "q2", "--m", "6"])
    assert result.exit_code == 0
    assert result.output == "22\n"
    result = runner.invoke(main, ["xi", "--n", "4", "--family", "q2", "--m", "8"])
    assert result.output == "8\n"


def test_xi_domain_error_exit_1(runner):
    result = runner.invoke(main, ["xi", "--n", "5", "--family", "q2", "--m", "17"])
    assert result.exit_code == 1


def test_usage_error_exit_2(runner):
    assert runner.invoke(main, ["xi", "--n", "5"]).exit_code == 2
    assert runner.invoke(main, ["xi", "--wat", "1"]).exit_code == 2
    conflict = runner.invoke(main, ["xi", "--n", "5", "--family", "qn", "--k", "2", "--m", "3"])
    assert conflict.exit_code == 2


def test_family_without_closed_form_exit_1(runner):
    assert runner.invoke(main, ["xi", "--n", "5", "--family", "fqn", "--m", "3"]).exit_code == 1
    assert runner.invoke(main, ["xi", "--n", "6", "--k", "3", "--m", "3"]).exit_code == 1
    assert runner.invoke(main, ["lambda", "--n", "6", "--k", "3", "--h", "3"]).exit_code == 1
    assert runner.invoke(main, ["profile", "--n", "6", "--k", "3"]).exit_code == 1
    for mode in ("exact", "sample"):
        result = runner.invoke(main, ["verify", "--n", "4", "--family", "fqn", "--mode", mode])
        assert result.exit_code == 1
        assert "no closed form" in result.output


def test_closed_forms_share_dimension_cap(runner):
    assert runner.invoke(main, ["xi", "--n", "62", "--family", "qn", "--m", "1"]).output == "62\n"
    assert runner.invoke(main, ["xi", "--n", "63", "--family", "qn", "--m", "1"]).exit_code == 1


def test_plain_family(runner):
    result = runner.invoke(main, ["xi", "--n", "4", "--family", "qn", "--m", "8"])
    assert result.output == "8\n"


def test_ex_command(runner):
    result = runner.invoke(main, ["ex", "--n", "4", "--m", "8"])
    assert result.exit_code == 0
    assert result.output == "32\n"


def test_lambda_command(runner):
    result = runner.invoke(main, ["lambda", "--n", "7", "--family", "q2", "--h", "16"])
    assert result.exit_code == 0
    assert result.output == "64\n"


def test_lambda_long_scan_exit_1(runner):
    assert runner.invoke(main, ["lambda", "--n", "40", "--h", "1"]).exit_code == 1
    result = runner.invoke(main, ["lambda", "--n", "40", "--h", "549755813888"])
    assert result.exit_code == 0
    assert result.output == "549755813888\n"


def test_profile_matches_fixture(runner, tmp_path):
    out = tmp_path / "profile.csv"
    result = runner.invoke(main, ["profile", "--n", "4", "--family", "q2", "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == (FIXTURES / "profile_q42.csv").read_text()


def test_profile_rows_n9(runner):
    result = runner.invoke(main, ["profile", "--n", "9", "--family", "q2"])
    lines = result.output.splitlines()
    assert lines[59] == "59,256,256,1"
    assert lines[58] == "58,254,254,1"
    assert lines[61] == "61,258,256,0"


def test_profile_deterministic(runner, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    runner.invoke(main, ["profile", "--n", "6", "--out", str(first)])
    runner.invoke(main, ["profile", "--n", "6", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_profile_json(runner):
    import json

    result = runner.invoke(main, ["profile", "--n", "4", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["n"] == 4
    assert payload["rows"][0] == {"h": 1, "xi": 5, "lambda": 5, "optimal": True}
    assert len(payload["rows"]) == 8
    for family, kind in (("qn", "hypercube"), ("q2", "enhanced")):
        result = runner.invoke(main, ["profile", "--n", "4", "--family", family, "--format", "json"])
        assert f'"family": "{kind}"' in result.output


def test_breakpoints_command(runner):
    assert runner.invoke(main, ["breakpoints", "--n", "9"]).output == "59 60 64 256\n"
    assert runner.invoke(main, ["breakpoints", "--n", "5"]).output == "4 16\n"
    assert runner.invoke(main, ["breakpoints", "--n", "3"]).exit_code == 1
    result = runner.invoke(main, ["breakpoints", "--n", "63"])
    assert result.exit_code == 1
    assert result.output.startswith("error:")


def test_concentration_command(runner):
    result = runner.invoke(main, ["concentration", "--n", "9"])
    assert result.exit_code == 0
    assert "breakpoints: 59 60 64 256" in result.output
    assert "constant: 256" in result.output
    result10 = runner.invoke(main, ["concentration", "--n", "10"])
    assert "constant: 512" in result10.output


def test_concentration_small_n_exit_1(runner):
    result = runner.invoke(main, ["concentration", "--n", "8"])
    assert result.exit_code == 1
    assert "table2" in result.output


def test_ratio_command(runner, tmp_path):
    out = tmp_path / "ratio.csv"
    result = runner.invoke(main, ["ratio", "--n-min", "4", "--n-max", "31", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,g,R_percent"
    assert lines[1] == "4,7,87.500000"
    assert "14,6315,77.087402" in lines
    assert lines[-1] == "31,827675990,77.083333"


def test_bitmap_command(runner, tmp_path):
    out = tmp_path / "q42.pbm"
    result = runner.invoke(main, ["bitmap", "--n", "4", "--k", "2", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "16 16"
    assert all(sum(int(tok) for tok in line.split()) == 5 for line in lines[2:])


def test_bitmap_folded_hypercube(runner, tmp_path):
    out = tmp_path / "fq3.pbm"
    result = runner.invoke(main, ["bitmap", "--n", "3", "--k", "1", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "8 8"
    assert all(sum(int(tok) for tok in line.split()) == 4 for line in lines[2:])


def test_bitmap_rejects_large_n(runner, tmp_path):
    result = runner.invoke(main, ["bitmap", "--n", "14", "--out", str(tmp_path / "x.pbm")])
    assert result.exit_code == 1


def test_unwritable_path_exit_1(runner, tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    result = runner.invoke(main, ["profile", "--n", "4", "--out", str(target)])
    assert result.exit_code == 1


def test_verify_exact(runner):
    result = runner.invoke(main, ["verify", "--n", "4", "--k", "2", "--mode", "exact"])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[-1] == "8/8 PASS"
    result3 = runner.invoke(main, ["verify", "--n", "3", "--k", "2", "--mode", "exact"])
    assert result3.exit_code == 0
    assert result3.output.strip().splitlines()[-1] == "4/4 PASS"


def test_verify_sample(runner):
    result = runner.invoke(
        main,
        ["verify", "--n", "9", "--k", "2", "--mode", "sample", "--samples", "500", "--seed", "1"],
    )
    assert result.exit_code == 0
    assert result.output.strip() == "violations: 0"

import ast
import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import cli_reference as ref
import numpy as np
import pytest
from click.testing import CliRunner

from extraconn import (
    CutSample,
    DomainError,
    GraphSpec,
    VerificationError,
    boundary_size,
    lambda_at,
    lambda_profile,
    xi,
)
from extraconn import cli, extremal, oracle
from extraconn.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


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
    assert runner.invoke(main, ["ex", "--n", "5", "--family", "fqn", "--m", "3"]).exit_code == 1
    assert runner.invoke(main, ["xi", "--n", "6", "--k", "3", "--m", "3"]).exit_code == 1
    assert runner.invoke(main, ["lambda", "--n", "6", "--k", "3", "--h", "3"]).exit_code == 1
    assert runner.invoke(main, ["profile", "--n", "6", "--k", "3"]).exit_code == 1
    for mode in ("exact", "sample"):
        result = runner.invoke(main, ["verify", "--n", "4", "--family", "fqn", "--mode", mode])
        assert result.exit_code == 1
        assert "no closed form" in result.output
    for k in (1, 3):
        message = (
            f"error: no closed form for k={k}; supported families are qn (plain) and q2 (k=2)\n"
        )
        graph = ["--n", "6", "--k", str(k)]
        small = ["--n", "5", "--k", str(k)]
        for args, expected in (
            (["xi", *graph, "--m", "3"], message),
            (["ex", *graph, "--m", "3"], message),
            (["lambda", *graph, "--h", "3"], message),
            (["profile", *graph], message),
            # n = 6 is past the exhaustive sweep's cap, which exact mode names first
            (["verify", *graph, "--mode", "exact"], "error: n=6 outside [2, 5]\n"),
            (["verify", *graph, "--mode", "sample"], message),
            (["verify", *small, "--mode", "exact"], message),
            (["verify", *small, "--mode", "sample"], message),
        ):
            result = _apart_runner().invoke(main, args)
            assert (result.exit_code, result.stdout, result.stderr) == (1, "", expected), args


def test_family_check_runs_before_any_search(runner, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran before the family check")

    def unstarted(*args, **kwargs):
        # sample mode calls the sampler for its argument checks before the
        # family check; the walk starts at the first next()
        yield refuse()

    # the Q_{5,1} exact sweep would take minutes, so it must never start
    monkeypatch.setattr(cli, "xi_bruteforce_sweep", refuse)
    monkeypatch.setattr(cli, "sample_cuts", unstarted)
    for mode in ("exact", "sample"):
        result = runner.invoke(main, ["verify", "--n", "5", "--family", "fqn", "--mode", mode])
        assert result.exit_code == 1
        assert "no closed form" in result.output
    with pytest.raises(DomainError, match="no closed form"):
        lambda_at(GraphSpec(6, 3), 1)
    with pytest.raises(DomainError, match="no closed form"):
        lambda_profile(GraphSpec(6, 1))
    with pytest.raises(DomainError, match="no closed form"):
        extremal._xi(GraphSpec(6, 3), 5)
    # the refusal comes before the profile's 2^25-entry arrays
    for k in (1, 3):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="no closed form"):
                lambda_profile(GraphSpec(26, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# each graph command's own options, in --help order
_GRAPH_COMMANDS = {
    "xi": ["--m"],
    "ex": ["--m"],
    "lambda": ["--h"],
    "profile": ["--out", "--format"],
    "bitmap": ["--out"],
    "verify": ["--mode", "--samples", "--seed"],
}


@pytest.mark.parametrize("command", sorted(_GRAPH_COMMANDS))
def test_graph_option_group(runner, command):
    own = {"xi": ["--m", "3"], "ex": ["--m", "3"], "lambda": ["--h", "3"]}.get(command, [])
    conflict = _apart_runner().invoke(main, [command, "--n", "5", "--family", "qn", "--k", "2", *own])
    assert conflict.exit_code == 2
    assert "Error: --family qn conflicts with --k 2\n" in conflict.stderr
    help_text = runner.invoke(main, [command, "--help"]).output
    listed = [line.split()[0] for line in help_text.splitlines() if line.startswith("  --")]
    assert listed == ["--n", "--family", "--k", *_GRAPH_COMMANDS[command], "--help"]
    # only a bitmap needs no closed form
    folded = runner.invoke(main, [command, "--n", "4", "--family", "fqn", *own])
    assert folded.exit_code == (0 if command == "bitmap" else 1)


def test_closed_forms_share_dimension_cap(runner):
    assert runner.invoke(main, ["xi", "--n", "62", "--family", "qn", "--m", "1"]).output == "62\n"
    assert runner.invoke(main, ["xi", "--n", "63", "--family", "qn", "--m", "1"]).exit_code == 1


def test_smallest_dimension_of_each_family():
    # Q_{n,2} needs n >= 3, so the default family refuses n = 2 by its name; qn takes it
    result = _apart_runner().invoke(main, ["xi", "--n", "2", "--m", "1"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "error: family q2 needs n >= 3, got n=2\n"
    result = _apart_runner().invoke(main, ["xi", "--n", "2", "--family", "q2", "--m", "1"])
    assert (result.exit_code, result.stderr) == (1, "error: family q2 needs n >= 3, got n=2\n")
    # an explicit --k is named as it was passed
    result = _apart_runner().invoke(main, ["xi", "--n", "2", "--k", "2", "--m", "1"])
    assert (result.exit_code, result.stderr) == (1, "error: k=2 outside [1, 1]\n")
    result = _apart_runner().invoke(main, ["xi", "--n", "2", "--family", "qn", "--m", "1"])
    assert (result.exit_code, result.output) == (0, "2\n")


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


def test_python_dash_m(tmp_path):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, "-m", "extraconn", "lambda", "--n", "7", "--h", "16"],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "64\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_ends_the_writer_with_one_error_line(tmp_path, unbuffered):
    # the 2 MiB bitmap is one chunk, far past a pipe's buffer, so the writer is
    # still writing when the reader goes away after one byte
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "extraconn", "bitmap", "--n", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    )
    assert proc.stdout.read(1) == b"P"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b"error: [Errno 32] Broken pipe\n"


def test_lambda_long_range_command(runner):
    result = runner.invoke(main, ["lambda", "--n", "40", "--h", "1"])
    assert result.exit_code == 0
    assert result.output == "41\n"
    result = runner.invoke(main, ["lambda", "--n", "9", "--family", "fqn", "--h", "3"])
    assert result.exit_code == 1
    assert "no closed form" in result.output
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
    result = runner.invoke(main, ["profile", "--n", "4", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["n"] == 4
    assert payload["rows"][0] == {"h": 1, "xi": 5, "lambda": 5, "optimal": True}
    assert len(payload["rows"]) == 8
    for family, kind in (("qn", "hypercube"), ("q2", "enhanced")):
        result = runner.invoke(main, ["profile", "--n", "4", "--family", family, "--format", "json"])
        assert f'"family": "{kind}"' in result.output


def _profile_json_by_dumps(profile):
    """The former JSON writer: json.dumps over one dict per row."""
    rows = [
        {"h": h, "xi": x, "lambda": lam, "optimal": x == lam}
        for h, x, lam in zip(
            range(1, profile.half + 1), profile.xi_values.tolist(), profile.lambda_values.tolist()
        )
    ]
    kind = "hypercube" if profile.family.k is None else "enhanced"
    return json.dumps({"n": profile.family.n, "family": kind, "rows": rows}) + "\n"


def _profile_text(profile, fmt):
    return "".join(cli._profile_chunks(profile, fmt))


# 2^15-row blocks: n = 17 is the first profile that spans two blocks
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 18) for k in (None, 2) if k is None or n >= 3])
def test_profile_json_matches_json_dumps(n, k):
    profile = lambda_profile(GraphSpec(n, k))
    text = _profile_text(profile, "json")
    assert text == _profile_json_by_dumps(profile)
    payload = json.loads(text)
    assert [row["xi"] for row in payload["rows"]] == profile.xi_values.tolist()
    assert [row["optimal"] for row in payload["rows"]] == (
        profile.xi_values == profile.lambda_values
    ).tolist()


_FAMILIES = [(n, family) for n in range(2, 19) for family in ("qn", "q2") if family == "qn" or n >= 3]


@pytest.mark.parametrize("n,family", _FAMILIES)
def test_profile_matches_row_writers(runner, n, family):
    assert GraphSpec(18).half > 2 * cli.BLOCK_ROWS  # n = 17, 18 span several blocks
    profile = lambda_profile(GraphSpec(n, cli._FAMILY_KINDS[family]))
    for fmt, reference in (("csv", ref.profile_csv), ("json", ref.profile_json)):
        result = runner.invoke(main, ["profile", "--n", str(n), "--family", family, "--format", fmt])
        assert result.exit_code == 0
        assert result.stdout_bytes == reference(profile).encode("ascii"), (n, family, fmt)


@pytest.mark.parametrize("block_rows", [1, 3, 7, 100])
def test_profile_blocks_of_any_size(monkeypatch, block_rows):
    # short and partial last blocks, and digit widths that change between blocks
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    for n, k in ((2, None), (3, 2), (8, 2), (9, None), (10, 2)):
        profile = lambda_profile(GraphSpec(n, k))
        assert _profile_text(profile, "csv") == ref.profile_csv(profile)
        assert _profile_text(profile, "json") == ref.profile_json(profile)


def _rows_text_by_fstrings(rows, parts):
    # reference: each row spelled part by part from Python ints and bytes
    def cell(part, i):
        if isinstance(part, bytes):
            return part.decode("ascii")
        if isinstance(part, tuple):
            table, index = part
            return table[index[i]].tobytes().replace(b"\0", b"").decode("ascii")
        return f"{int(part[i])}"

    return "".join(cell(part, i) for i in range(rows) for part in parts)


_DIGIT_EDGES = [0, 9, 10, 2**32 - 1, 2**32, 2**53 + 1, 2**63 - 1]


@pytest.mark.parametrize("top", _DIGIT_EDGES)
def test_rows_text_digit_edge_cases(top):
    # the column maximum picks the digit dtype: uint32 below 2^32, uint64 from
    # 2^32 on, so top = 2^32 fails if that choice truncates
    column = np.array([v for v in _DIGIT_EDGES if v <= top], dtype=np.int64)
    flags = (column % 2).astype(np.uint8)
    blocks = [
        (len(column), [column, b",", column[::-1], b",", (cli._JSON_FLAGS, flags), b"\n"]),
        (1, [b"[", column[-1:], b" ", column[:1], b"]\n"]),
        (3, [b'{"h": ', b"}, "]),
    ]
    for rows, parts in blocks:
        assert cli._rows_text(rows, parts) == _rows_text_by_fstrings(rows, parts)


def test_bitmap_to_file_memory(tmp_path):
    # the 16 MiB matrix plus at most two copies of the 32 MiB text: the byte
    # buffer and its decoded str, then the str and the file's encoded bytes
    out = str(tmp_path / "b.pbm")
    main.main(args=["bitmap", "--n", "4", "--out", out], standalone_mode=False)  # imports and caches
    tracemalloc.start()
    try:
        main.main(args=["bitmap", "--n", "12", "--out", out], standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = 4096 * 4096
    text = 2 * cells  # a digit and a space or "\n" per cell
    assert peak <= cells + 2 * text + (1 << 20)
    assert os.path.getsize(out) == len("P1\n4096 4096\n") + text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_to_file_memory(tmp_path, fmt):
    # the profile arrays plus a few blocks of text, never the whole text
    # (at n = 22 the CSV is 51 MiB and the JSON 134 MiB)
    family = GraphSpec(22, 2)
    args = ["profile", "--n", "22", "--format", fmt, "--out", str(tmp_path / "p")]
    main.main(args=["profile", "--n", "4", "--format", fmt, "--out", str(tmp_path / "p")],
              standalone_mode=False)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        main.main(args=args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = 2 * 8 * family.half
    block = cli.BLOCK_ROWS * 128  # a JSON row is under 128 bytes
    assert peak <= arrays + 4 * block
    last = {"csv": "\n{0},{0},{0},1\n", "json": '{{"h": {0}, "xi": {0}, "lambda": {0}, "optimal": true}}]}}\n'}
    with open(tmp_path / "p", "rb") as fh:
        fh.seek(-100, os.SEEK_END)
        assert fh.read().endswith(last[fmt].format(family.half).encode())


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "--n", "9"],
        ["profile", "--n", "9", "--family", "qn", "--format", "json"],
        ["ratio", "--n-min", "4", "--n-max", "31"],
        ["bitmap", "--n", "4", "--k", "2"],
    ],
)
def test_out_file_bytes_equal_stdout(runner, tmp_path, args):
    out = tmp_path / "out"
    to_stdout = runner.invoke(main, args)
    to_file = runner.invoke(main, [*args, "--out", str(out)])
    assert to_stdout.exit_code == to_file.exit_code == 0
    assert to_file.stdout_bytes == b""
    assert out.read_bytes() == to_stdout.stdout_bytes
    assert b"\r" not in to_stdout.stdout_bytes


def test_breakpoints_command(runner):
    assert runner.invoke(main, ["breakpoints", "--n", "9"]).output == "59 60 64 256\n"
    assert runner.invoke(main, ["breakpoints", "--n", "5"]).output == "4 16\n"
    assert runner.invoke(main, ["breakpoints", "--n", "3"]).exit_code == 1
    result = runner.invoke(main, ["breakpoints", "--n", "63"])
    assert result.exit_code == 1
    assert result.output.startswith("error:")


def test_breakpoints_small_n_message(runner):
    # breakpoints answers 4..62, so the message names that range
    result = runner.invoke(main, ["breakpoints", "--n", "3"])
    assert result.exit_code == 1
    assert "outside [4, 62]" in result.output


def test_concentration_command(runner):
    result = runner.invoke(main, ["concentration", "--n", "9"])
    assert result.exit_code == 0
    assert "breakpoints: 59 60 64 256" in result.output
    assert "constant: 256" in result.output
    result10 = runner.invoke(main, ["concentration", "--n", "10"])
    assert "constant: 512" in result10.output


def test_concentration_command_up_to_n62(runner):
    result = runner.invoke(main, ["concentration", "--n", "62"])
    assert result.exit_code == 0
    assert f"constant: {1 << 61}" in result.output
    assert runner.invoke(main, ["concentration", "--n", "63"]).exit_code == 1


def test_concentration_small_n_exit_1(runner):
    result = runner.invoke(main, ["concentration", "--n", "8"])
    assert result.exit_code == 1
    assert "outside [9, 62]" in result.output


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


def test_profile_limit_message():
    # verify checks its mode's own cap on n first, which lies below the profile's
    for args, message in (
        (["profile", "--n", "27"], "error: profiles are materialized only up to n=26, got n=27\n"),
        (["verify", "--n", "27", "--mode", "exact"], "error: n=27 outside [2, 5]\n"),
        (["verify", "--n", "62", "--mode", "sample"], "error: n=62 outside [2, 12]\n"),
    ):
        result = _apart_runner().invoke(main, args)
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", message), args


def _refusal(args):
    """(exit code, stdout, stderr, tracemalloc peak in bytes) of one CLI call."""
    runner = _apart_runner()
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result.exit_code, result.stdout, result.stderr, peak


def test_verify_names_its_limits_before_the_family():
    # each mode checks its n range, then --samples and --seed, then the family,
    # and only then builds its profile (0.5 GiB of arrays at n = 26)
    fqn = ["--family", "fqn"]
    for args, message in (
        (["--n", "6", "--k", "1", "--mode", "exact"], "n=6 outside [2, 5]"),
        (["--n", "13", *fqn, "--mode", "sample"], "n=13 outside [2, 12]"),
        (["--n", "5", *fqn, "--mode", "sample", "--samples", "-1"], "samples=-1 outside [0, inf)"),
        (["--n", "5", *fqn, "--mode", "sample", "--seed", "-1"], "seed=-1 outside [0, inf)"),
        (["--n", "26", *fqn, "--mode", "exact"], "n=26 outside [2, 5]"),
        (["--n", "26", *fqn, "--mode", "sample"], "n=26 outside [2, 12]"),
    ):
        code, out, err, peak = _refusal(["verify", *args])
        assert (code, out, err) == (1, "", f"error: {message}\n"), args
        assert peak < 1 << 20, (args, peak)


@pytest.mark.parametrize(
    "args",
    [
        "profile --n 27",
        "bitmap --n 14",
        "lambda --n 63 --h 1",
        "xi --n 5 --m 17",
        "verify --n 26 --mode exact",
        "verify --n 26 --mode sample",
    ],
)
def test_out_of_range_refused_before_allocating(args):
    code, out, err, peak = _refusal(args.split())
    assert (code, out) == (1, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert peak < 1 << 20, peak


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


def test_verify_exact_mismatch_exit_3(monkeypatch):
    # xi_4(Q_{4,2}) = 12 lies above every later xi, so raising it by one
    # fails that row alone and leaves every suffix minimum as it was
    real = cli.xi_bruteforce_sweep
    witnesses = {}

    def off_by_one(*args, **kwargs):
        results = real(*args, **kwargs)
        witnesses.update((r.m, r.witness) for r in results)
        return [replace(r, xi_exact=r.xi_exact + 1) if r.m == 4 else r for r in results]

    monkeypatch.setattr(cli, "xi_bruteforce_sweep", off_by_one)
    result = _apart_runner().invoke(main, ["verify", "--n", "4", "--family", "q2", "--mode", "exact"])
    assert result.exit_code == 3
    lines = result.stdout.splitlines()
    assert len(lines) == 9
    assert [line for line in lines if line.endswith("FAIL")] == [
        "m=4 xi_exact=13 xi=12 lambda_exact=8 lambda=8 FAIL"
    ]
    assert lines[-1] == "7/8 PASS"
    # stderr names the failing row and its witness, a 4-set of boundary 12
    witness = sorted(witnesses[4])
    assert len(witness) == 4 and boundary_size(GraphSpec(4, 2), witness) == 12
    assert result.stderr == (
        "verification failure: first failing row:"
        f" m=4 xi_exact=13 xi=12 lambda_exact=8 lambda=8 witness={witness}\n"
    )


def test_verify_exact_search_cap_exit_1(monkeypatch):
    # the oracle's ResourceLimitError reaches the user as one error line, with no table
    monkeypatch.setattr(oracle, "MAX_SEARCH_STEPS", 100)
    result = _apart_runner().invoke(main, ["verify", "--n", "4", "--k", "2", "--mode", "exact"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        "error: search exceeded the 100 extension-step budget after 99 steps,"
        " with sets of up to 6 vertices grown\n"
    )


def _apart_runner():
    # click >= 8.2 keeps stderr apart by default; older versions need mix_stderr=False
    apart = {"mix_stderr": False} if "mix_stderr" in inspect.signature(CliRunner).parameters else {}
    return CliRunner(**apart)


def test_verify_sample_violation_exit_3(monkeypatch):
    # a passing cut, then two cuts below the xi lower bound: stderr names the first
    spec = GraphSpec(9, 2)
    cuts = [
        CutSample(h=3, cut_size=xi(spec, 3), both_connected=True),
        CutSample(h=2, cut_size=xi(spec, 2) - 1, both_connected=True),
        CutSample(h=4, cut_size=xi(spec, 4) - 2, both_connected=True),
    ]
    monkeypatch.setattr(cli, "sample_cuts", lambda *args, **kwargs: iter(cuts))
    result = _apart_runner().invoke(main, ["verify", "--n", "9", "--k", "2", "--mode", "sample"])
    assert result.exit_code == 3
    assert result.stdout == "violations: 2\n"
    assert result.stderr == (
        f"verification failure: first violating cut: h=2 cut_size={xi(spec, 2) - 1}"
        f" xi={xi(spec, 2)}\n"
    )


def test_concentration_verification_failure_exit_3(monkeypatch):
    def fail(n):
        raise VerificationError(f"lambda_59(Q_{{{n},2}}) = 255, expected 256", h=59)

    monkeypatch.setattr(cli, "concentration_report", fail)
    result = _apart_runner().invoke(main, ["concentration", "--n", "9"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "verification failure: lambda_59(Q_{9,2}) = 255, expected 256\n"


def test_verify_sample_refuses_negative_seed(runner):
    # random.Random seeds by absolute value, so --seed -1 would replay --seed 1
    result = runner.invoke(
        main, ["verify", "--n", "9", "--k", "2", "--mode", "sample", "--seed", "-1"]
    )
    assert result.exit_code == 1
    assert "seed=-1 outside [0, inf)" in result.output


def _owners(tree, match):
    """The def around each node `match` accepts in a parsed module (None at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, None)
    return found


def _callers(tree, name):
    """The def around each call of `name` in a parsed module (None at module level)."""

    def calls(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (
            getattr(func, "id", None), getattr(func, "attr", None))

    return _owners(tree, calls)


def test_cli_imports_no_private_name():
    # the CLI reaches the package through its public names only; the family
    # refusal lives in extremal, where _runs is read for a value
    tree = ast.parse((SRC / "extraconn" / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    for path in sorted((SRC / "extraconn").glob("*.py")):
        callers = _callers(ast.parse(path.read_text()), "_runs")
        expected = ["_xi", "_xi_profile", "_blocks"] if path.stem == "extremal" else []
        assert sorted(set(callers)) == sorted(expected), path.name


def test_cli_writes_through_one_writer():
    # click parses options only: no click.echo and no print, and only
    # _write_output touches sys.stdout, so no second output path comes back
    tree = ast.parse((SRC / "extraconn" / "cli.py").read_text())
    for name in ("echo", "secho", "print"):
        assert _callers(tree, name) == [], name
    assert not any(isinstance(node, ast.ImportFrom) and node.module in ("sys", "click")
                   for node in ast.walk(tree))
    uses = _owners(tree, lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("stdout", "__stdout__"))
    assert uses and set(uses) == {"_write_output"}


@pytest.mark.parametrize(
    "args, redirect, text",
    [
        (["bitmap", "--n", "4"], contextlib.redirect_stdout, "P1\n16 16\n"),
        (["xi", "--n", "4", "--m", "1"], contextlib.redirect_stdout, "5\n"),
        (["xi", "--n", "4", "--m", "99"], contextlib.redirect_stderr, "error: m=99 outside [1, 8]\n"),
    ],
    ids=["bitmap", "xi", "xi-refused"],
)
def test_in_process_call_keeps_no_stream_alive(args, redirect, text):
    # click caches a wrapper for each stream it writes to, keyed weakly but
    # holding the stream itself; the CLI's writer hands click no stream, so
    # a caller's buffer is free once the caller drops it
    stream = io.StringIO()
    with redirect(stream), contextlib.suppress(SystemExit):
        main.main(args, prog_name="extraconn", standalone_mode=False)
    assert stream.getvalue().startswith(text)
    alive = weakref.ref(stream)
    del stream
    gc.collect()
    assert alive() is None

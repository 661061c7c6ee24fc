"""Command-line front end.

Subcommands expose every computation and emit the value tables, profile
CSVs, ratio CSVs and adjacency bitmaps as files. A profile is streamed in
blocks of BLOCK_ROWS rows, so its text is never held whole. Each block is
one byte matrix filled from the value arrays: literals copied from one
template row, digits computed in unsigned integers, and the padding bytes
deleted with bytes.translate. A bitmap's text is written by
graphs.pbm_text into one byte buffer and decoded once. Exit codes: 0 success,
1 domain or I/O error, 2 usage error, 3 verification failure. All output
is deterministic given the flags (plus the seed, where one applies), and
stdout and --out get the same bytes. Every graph command takes the option
group _graph_options (--n, --family, --k) as one GraphSpec named spec.
"""

from __future__ import annotations

import functools
import sys

import click
import numpy as np

from .concentration import (
    breakpoints,
    concentration_report,
    lambda_at,
    lambda_profile,
    ratio_table,
    suffix_minima,
)
from .errors import MAX_EXHAUSTIVE_DIMENSION, DomainError, ResourceLimitError, VerificationError
from .extremal import ex, xi
from .graphs import GraphSpec, adjacency_bitmap, pbm_text
from .oracle import sample_cuts, xi_bruteforce_sweep

_FAMILY_KINDS = {"qn": None, "fqn": 1, "q2": 2}


def _write_output(out: str, chunks) -> None:
    """Write the text chunks in order to stdout ('-') or to the file `out`.

    A file gets the ASCII bytes exactly as stdout does: no newline translation.
    """
    if out == "-":
        for chunk in chunks:
            click.echo(chunk, nl=False)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.writelines(chunks)


_n_option = click.option("--n", "n", type=int, required=True, help="Dimension.")
_family_option = click.option(
    "--family",
    type=click.Choice(sorted(_FAMILY_KINDS)),
    default=None,
    help="Graph family: qn (plain), fqn (k=1), q2 (k=2). Default q2.",
)
_k_option = click.option("--k", "k", type=int, default=None, help="Complement parameter.")


def _graph_options(command):
    """Add --n, --family and --k, in that order, ahead of the command's own
    options, and pass the command the graph they name as one GraphSpec, spec."""

    @functools.wraps(command)
    def with_spec(n, family, k, **kwargs):
        if k is None:
            family = family or "q2"
            k = _FAMILY_KINDS[family]
            # GraphSpec would name k, which was not passed; a bad n it names itself
            if k is not None and 2 <= n <= k:
                raise DomainError(f"family {family} needs n >= {k + 1}, got n={n}")
        elif family is not None and _FAMILY_KINDS[family] != k:
            raise click.UsageError(f"--family {family} conflicts with --k {k}")
        return command(spec=GraphSpec(n, k), **kwargs)

    return _n_option(_family_option(_k_option(with_spec)))


_out_option = click.option("--out", default="-", help="Output path ('-' for stdout).")


class _Main(click.Group):
    """The command group; its invoke is the one map from errors to exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except VerificationError as exc:
            click.echo(f"verification failure: {exc}", err=True)
            sys.exit(3)
        except (DomainError, ResourceLimitError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Edge-connectivity reliability profiles for hypercube-family networks."""


@main.command("xi")
@_graph_options
@click.option("--m", "m", type=int, required=True, help="Subset cardinality.")
def xi_cmd(spec, m):
    """Minimum boundary over size-m sets with both sides connected."""
    click.echo(str(xi(spec, m)))


@main.command("ex")
@_graph_options
@click.option("--m", "m", type=int, required=True, help="Subset cardinality.")
def ex_cmd(spec, m):
    """Twice the maximum induced edge count over size-m sets."""
    click.echo(str(ex(spec, m)))


@main.command("lambda")
@_graph_options
@click.option("--h", "h", type=int, required=True, help="Minimum component size.")
def lambda_cmd(spec, h):
    """Minimum cut leaving two connected components of at least h vertices."""
    click.echo(str(lambda_at(spec, h)))


# Rows per text block: a block's matrix is a few MiB whatever the profile size.
BLOCK_ROWS = 1 << 15

# "optimal" in JSON, by row index: 0 -> false, 1 -> true (0-padded).
_JSON_FLAGS = np.frombuffer(b"false" b"true\0", dtype=np.uint8).reshape(2, 5)


def _rows_text(rows: int, parts) -> str:
    """`rows` rows of ASCII text, each spelled left to right by `parts`.

    A part is literal bytes, a non-negative int array written in decimal,
    or a pair (table, index) that writes row index[i] of a uint8 byte table.
    Every row fills one line of a (rows, width) uint8 matrix, which starts
    as copies of one template row holding the literals in their fixed
    columns; numbers are then written right-aligned behind 0 bytes, their
    digits taken in uint32 when the column's maximum is below 2^32 and in
    uint64 otherwise, as unsigned division by 10 is faster than signed.
    Deleting the 0 bytes with bytes.translate leaves the text.
    """
    template = bytearray()
    fills = []  # (first column, width, part) for each part not a literal
    for part in parts:
        if isinstance(part, bytes):
            template += part
            continue
        if isinstance(part, tuple):
            width = part[0].shape[1]
        else:
            top = int(part.max())
            width = len(str(top))
            part = part.astype(np.uint32 if top < 1 << 32 else np.uint64)
        fills.append((len(template), width, part))
        template += bytes(width)
    matrix = np.empty((rows, len(template)), dtype=np.uint8)
    matrix[:] = np.frombuffer(template, dtype=np.uint8)
    for col, width, part in fills:
        if isinstance(part, tuple):
            table, index = part
            matrix[:, col:col + width] = table[index]
        else:
            # q // 10 and a subtraction, not np.divmod: divmod has no fast
            # path for a scalar divisor and takes several times as long
            q = part
            for pos in range(col + width - 1, col - 1, -1):
                next_q = q // 10
                digits = q - 10 * next_q + 48
                if pos < col + width - 1:
                    digits[q == 0] = 0
                matrix[:, pos] = digits
                q = next_q
    return matrix.tobytes().translate(None, b"\0").decode("ascii")


def _profile_chunks(profile, fmt: str):
    """The profile as CSV or JSON text, one chunk per BLOCK_ROWS rows.

    The JSON is what json.dumps writes for
    {"n", "family", "rows": [{"h", "xi", "lambda", "optimal"}]}.
    """
    half = profile.half
    if fmt == "csv":
        yield "h,xi,lambda,optimal\n"
    else:
        kind = "hypercube" if profile.family.k is None else "enhanced"
        yield f'{{"n": {profile.family.n}, "family": "{kind}", "rows": ['
    for start in range(0, half, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, half)
        h = np.arange(start + 1, stop + 1, dtype=np.int64)
        x = profile.xi_values[start:stop]
        lam = profile.lambda_values[start:stop]
        optimal = (x == lam).view(np.uint8)
        if fmt == "csv":
            yield _rows_text(stop - start, [h, b",", x, b",", lam, b",", optimal, b"\n"])
        else:
            parts = [b'{"h": ', h, b', "xi": ', x, b', "lambda": ', lam,
                     b', "optimal": ', (_JSON_FLAGS, optimal), b"}, "]
            text = _rows_text(stop - start, parts)
            yield text if stop < half else text[:-2] + "]}\n"


@main.command("profile")
@_graph_options
@_out_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def profile_cmd(spec, out, fmt):
    """Full xi/lambda profile for 1 <= h <= 2^(n-1)."""
    profile = lambda_profile(spec)
    _write_output(out, _profile_chunks(profile, fmt))


@main.command("breakpoints")
@_n_option
def breakpoints_cmd(n):
    """The h values where lambda is optimal inside the constant interval."""
    click.echo(" ".join(str(v) for v in breakpoints(n).values))


@main.command("concentration")
@_n_option
def concentration_cmd(n):
    """Verify and print the constant-lambda interval report (n >= 9)."""
    report = concentration_report(n)
    click.echo(f"n: {report.n}")
    click.echo(f"interval: [{report.h_min}, {report.h_max}]")
    click.echo(f"constant: {report.constant}")
    click.echo("breakpoints: " + " ".join(str(v) for v in report.breakpoints))
    click.echo("optimal_h: " + " ".join(str(v) for v in report.optimal_h))
    click.echo(f"lambda_below: {report.lambda_below} (gap {report.gap})")


@main.command("ratio")
@click.option("--n-min", type=int, default=4, show_default=True)
@click.option("--n-max", type=int, default=31, show_default=True)
@_out_option
def ratio_cmd(n_min, n_max, out):
    """CSV of g(n) and the truncated percentage g(n)/2^(n-1)."""
    rows = ratio_table(n_min, n_max)
    text = "n,g,R_percent\n" + "".join(f"{r.n},{r.g},{r.display}\n" for r in rows)
    _write_output(out, [text])


@main.command("bitmap")
@_graph_options
@_out_option
def bitmap_cmd(spec, out):
    """Adjacency matrix as a plain-text portable bitmap (P1)."""
    _write_output(out, [pbm_text(adjacency_bitmap(spec))])


@main.command("verify")
@_graph_options
@click.option("--mode", type=click.Choice(["exact", "sample"]), default="exact", show_default=True)
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def verify_cmd(spec, mode, samples, seed):
    """Check the closed forms against graph-level ground truth.

    exact: exhaustive minima for every m (n <= 5); on a failure, stderr
    names the first failing row and its witness set. sample: seeded random
    cuts checked against the xi lower bound (n <= 12); on a violation,
    stderr names the first violating cut. Each mode checks its own limits,
    then the family (through the profile), then builds the table and searches.
    """
    if mode == "exact":
        DomainError.require(spec.n, 2, MAX_EXHAUSTIVE_DIMENSION, "n")  # the sweep's own check
        profile = lambda_profile(spec)
        half = spec.half
        results = xi_bruteforce_sweep(spec, half)
        suffix = suffix_minima([r.xi_exact for r in results]).tolist()
        failed = []
        xs, lams = profile.xi_values.tolist(), profile.lambda_values.tolist()
        for result, x, lam, lam_exact in zip(results, xs, lams, suffix):
            row = (
                f"m={result.m} xi_exact={result.xi_exact} xi={x} "
                f"lambda_exact={lam_exact} lambda={lam}"
            )
            ok = result.xi_exact == x and lam_exact == lam
            if not ok:
                failed.append((result, row))
            click.echo(f"{row} {'PASS' if ok else 'FAIL'}")
        click.echo(f"{half - len(failed)}/{half} PASS")
        if failed:
            result, row = failed[0]
            raise VerificationError(
                f"first failing row: {row} witness={sorted(result.witness)}", h=result.m
            )
    else:
        cuts = sample_cuts(spec, samples, seed)  # checks its arguments, starts no walk
        xs = lambda_profile(spec).xi_values
        violating = [(cut, bound) for cut in cuts if cut.cut_size < (bound := xs[cut.h - 1])]
        click.echo(f"violations: {len(violating)}")
        if violating:
            cut, bound = violating[0]
            raise VerificationError(
                f"first violating cut: h={cut.h} cut_size={cut.cut_size} xi={bound}", h=cut.h
            )


if __name__ == "__main__":
    main()

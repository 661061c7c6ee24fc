"""The CLI's former row-by-row profile writers, the reference for its block writer.

Each row is one f-string over Python ints; the rows are joined into one
text. extraconn.cli writes the same bytes from uint8 matrices, a block of
rows at a time.
"""

from __future__ import annotations


def _profile_rows(profile):
    return zip(range(1, profile.half + 1), profile.xi_values.tolist(), profile.lambda_values.tolist())


def profile_csv(profile) -> str:
    rows = (f"{h},{x},{lam},{1 if x == lam else 0}\n" for h, x, lam in _profile_rows(profile))
    return "h,xi,lambda,optimal\n" + "".join(rows)


def profile_json(profile) -> str:
    """What json.dumps writes for {"n", "family", "rows": [{"h", "xi", "lambda", "optimal"}]}."""
    rows = ", ".join(
        f'{{"h": {h}, "xi": {x}, "lambda": {lam}, "optimal": {"true" if x == lam else "false"}}}'
        for h, x, lam in _profile_rows(profile)
    )
    kind = "hypercube" if profile.family.k is None else "enhanced"
    return f'{{"n": {profile.family.n}, "family": "{kind}", "rows": [{rows}]}}\n'

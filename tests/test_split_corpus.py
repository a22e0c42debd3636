"""Golden corpus for `two_adic_split`: every result pinned.

A seeded set of odd-determinant forms (dimensions 2 to 10, entries in
-9..9) is split at K = 3, 6 and 8, together with the hyperbolic sums
k*H + <u> (u odd) for k = 4, 12 and 20.  For each case the file
`tests/golden_split2.json` holds the block kinds, the remainder and a
sha256 of the transform, or the type and message of the exception
raised.  A change to the split that alters any of them on purpose
re-records the file with

    PYTHONPATH=src python tests/test_split_corpus.py

and says so in its change notes.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from qflat.exact import determinant
from qflat.localform import two_adic_split

GOLDEN = pathlib.Path(__file__).with_name("golden_split2.json")


def _random_forms(count=60):
    rng = random.Random("split2-corpus")
    out = []
    while len(out) < count:
        n = rng.randint(2, 10)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-9, 9)
        if determinant(g) % 2:
            out.append(tuple(map(tuple, g)))
    return out


def _hyperbolic_sum(k, unit):
    n = 2 * k + 1
    g = [[0] * n for _ in range(n)]
    for i in range(k):
        g[2 * i][2 * i + 1] = g[2 * i + 1][2 * i] = 1
    g[-1][-1] = unit
    return tuple(map(tuple, g))


def _cases():
    cases = [(g, K) for g in _random_forms() for K in (3, 6, 8)]
    rng = random.Random("split2-hyperbolic")
    cases += [(_hyperbolic_sum(k, rng.choice((1, 3, 5, 7))), 8)
              for k in (4, 12, 20)]
    return cases


CASES = _cases()


def _key(gram, K):
    return f"K={K} {[list(r) for r in gram]}"


def _outcome(gram, K):
    try:
        res = two_adic_split(gram, K)
    except Exception as err:  # the exception itself is the pinned result
        return {"error": type(err).__name__, "message": str(err)}
    transform = ";".join(",".join(map(str, row)) for row in res.transform)
    return {
        "kinds": [kind for kind, _ in res.blocks],
        "remainder": [list(r) for r in res.remainder],
        "transform_sha256": hashlib.sha256(transform.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_the_recorded_cases(golden):
    assert set(golden) == {_key(g, K) for g, K in CASES}


@pytest.mark.parametrize("gram,K", CASES,
                         ids=[f"{len(g)}x{len(g)}-K{K}-{i}"
                              for i, (g, K) in enumerate(CASES)])
def test_split_matches_golden(gram, K, golden):
    assert _outcome(gram, K) == golden[_key(gram, K)]


if __name__ == "__main__":
    record = {_key(g, K): _outcome(g, K) for g, K in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.exit(0)

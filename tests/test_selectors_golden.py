"""Selector lock: construction outputs that every selectors version must reproduce.

tests/data/selectors_golden.json holds, one entry per line, the rows of six
Kautz-Singleton codes (fields GF(2), GF(3), GF(4), GF(5), GF(8) and GF(9)),
four random families drawn as acceptance criterion 5 draws them, both branches
of construct_selector_poly on criterion 7's inputs, and the first
counterexample each exhaustive verifier returns on one failing input. A
refactor of selectors.py must keep every entry; a change that is meant to alter
a construction re-blesses the file and says why:

    PYTHONPATH=src python tests/test_selectors_golden.py --bless
"""

import json
import sys
from pathlib import Path

import pytest

from channel_lab import selectors
from channel_lab.core import derive_stream

GOLDEN = Path(__file__).resolve().parent / "data" / "selectors_golden.json"

KAUTZ_CASES = ((1, 2), (1, 5), (2, 16), (2, 20), (4, 50), (4, 65))
RANDOM_CASES = ((8, 4, 4), (12, 4, 2), (16, 2, 16), (16, 8, 4))
PLANTED_X = {2, 5, 11, 14}


def as_json(value):
    """The value as it reads back from the lock file (tuples become lists)."""
    return json.loads(json.dumps(value))


def code_doc(code):
    return {"q": code.q, "a": code.a, "b": code.b,
            "rows": [sorted(row) for row in code.rows]}


def family_doc(family):
    return {"provenance": family.provenance, "k": family.k,
            "sets": [list(s) for s in family.sets]}


def random_family(n, omega, k):
    rng = derive_stream(99, f"acceptance.gen.{n}.{omega}.{k}")
    return selectors.generate_selector_random(n, omega, k, 20, rng)


def poly_inputs():
    rng = derive_stream(77, "acceptance.poly")
    disperser = selectors.random_disperser(16, 2, 3, 1.0, 0.5, rng)
    return disperser, selectors.kautz_singleton(2, 16)


def poly_family(alpha):
    disperser, code = poly_inputs()
    return selectors.construct_selector_poly(
        16, 8, 4, selectors.PolyParams(c=2, alpha=alpha), disperser, code)


def failing_selector():
    """An accepted family stripped of every set that singles out one element of
    PLANTED_X, so PLANTED_X and possibly earlier subsets go unselected."""
    family = random_family(16, 8, 4)
    kept = tuple(s for s in family.sets if len(PLANTED_X & set(s)) != 1)
    return selectors.SelectorFamily(16, 8, 4, kept, "planted")


def entries():
    """Entry name -> function computing its JSON value."""
    out = {}
    for d, b in KAUTZ_CASES:
        out[f"kautz_singleton({d},{b})"] = \
            lambda d=d, b=b: code_doc(selectors.kautz_singleton(d, b))
    for n, omega, k in RANDOM_CASES:
        out[f"generate_selector_random({n},{omega},{k})"] = \
            lambda n=n, omega=omega, k=k: family_doc(random_family(n, omega, k))
    out["construct_selector_poly(auto)"] = lambda: family_doc(poly_family(None))
    out["construct_selector_poly(alpha=0)"] = lambda: family_doc(poly_family(0.0))
    out["verify_selector_exact(planted)"] = \
        lambda: as_json(selectors.verify_selector_exact(failing_selector()))
    out["verify_disjunct(kautz_singleton(1,16),2)"] = \
        lambda: as_json(selectors.verify_disjunct(selectors.kautz_singleton(1, 16), 2))
    out["verify_disperser(random_disperser(16,3,3,1.5,0.3))"] = \
        lambda: as_json(selectors.verify_disperser(selectors.random_disperser(
            16, 3, 3, 1.5, 0.3, derive_stream(0, "golden.disperser"))))
    return out


ENTRIES = entries()


def golden_text() -> str:
    lines = [f"  {json.dumps(name)}: {json.dumps(make())}" for name, make in ENTRIES.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_lock_names_every_entry(golden):
    assert list(golden) == list(ENTRIES)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_matches_lock(golden, name):
    assert ENTRIES[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_selectors_golden.py --bless")
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(golden_text())
    print(f"wrote {GOLDEN}")

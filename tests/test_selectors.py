import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_lab import selectors as sel
from channel_lab.core import derive_stream
from channel_lab.selectors import (
    Disperser, PolyParams, PreconditionUnverified, SelectorFamily,
    SelectorGenerationFailure, TooLargeError, construct_selector_poly, dilute,
    generate_selector_random, hit_count, identity_code, kautz_singleton,
    random_disperser, verify_disjunct, verify_disperser, verify_selector_exact,
    verify_selector_sampled,
)


def singletons(n, omega=2, k=1):
    return SelectorFamily(n, omega, k, tuple((i,) for i in range(1, n + 1)),
                          "singletons")


def hit_and_remove(family, x):
    """Independent oracle: iteratively extract hit elements, avoiding removed ones."""
    remaining = set(x)
    removed = set()
    progress = True
    while progress:
        progress = False
        for s in family.sets:
            s_set = set(s)
            if s_set & removed:
                continue
            inter = s_set & remaining
            if len(inter) == 1:
                elem = inter.pop()
                remaining.discard(elem)
                removed.add(elem)
                progress = True
                break
    return len(removed)


class TestHitCount:
    def test_singletons_hit_everything(self):
        assert hit_count(singletons(4), {2, 3}) == 2

    def test_double_overlap_is_not_a_hit(self):
        fam = SelectorFamily(4, 2, 2, ((1, 2),))
        assert hit_count(fam, {1, 2}) == 0

    def test_mixed_family_counts_distinct_hit_elements(self):
        fam = SelectorFamily(4, 2, 2, ((1, 2), (1,)))
        assert hit_count(fam, {1, 2}) == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_hit_and_remove(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        m = data.draw(st.integers(min_value=1, max_value=10))
        sets = tuple(
            tuple(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n)))
            for _ in range(m))
        fam = SelectorFamily(n, 2, n, sets)
        x = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=min(n, 12)))
        assert hit_count(fam, x) == hit_and_remove(fam, x)


class TestVerifyExact:
    def test_singletons_always_ok(self):
        for n, omega in ((4, 2), (8, 4), (10, 8)):
            assert verify_selector_exact(singletons(n, omega), n, omega) is None

    def test_sparse_family_yields_first_counterexample(self):
        fam = SelectorFamily(4, 4, 1, ((1,),))
        assert verify_selector_exact(fam, 4, 4) == (2, 3)

    def test_counterexamples_come_in_lexicographic_order(self):
        # {1,3} passes ({1} hits 1), {2,3} is the first failing subset even
        # though shorter-prefix sets like {1,2,3} are checked before it.
        fam = SelectorFamily(5, 4, 1, ((1,),))
        assert verify_selector_exact(fam, 5, 4) == (2, 3)

    def test_guard_raises_too_large(self):
        fam = singletons(64, 32)
        with pytest.raises(TooLargeError):
            verify_selector_exact(fam, 64, 32)


class TestVerifySampled:
    def test_singletons_never_fail(self):
        rng = derive_stream(1, "sampled")
        assert verify_selector_sampled(singletons(8), 8, 4, 500, rng) == 0.0

    def test_nearly_empty_family_fails_mostly(self):
        fam = SelectorFamily(16, 8, 1, ((1,),))
        rng = derive_stream(2, "sampled")
        assert verify_selector_sampled(fam, 16, 8, 1000, rng) > 0.9

    def test_exact_ok_family_samples_clean(self):
        rng = derive_stream(3, "sampled")
        fam = generate_selector_random(8, 4, 8, 20, rng)
        assert verify_selector_sampled(fam, 8, 4, 2000, rng) == 0.0


class TestGenerateRandom:
    def test_accepted_families_pass_the_exact_oracle(self):
        rng = derive_stream(4, "gen")
        fam = generate_selector_random(4, 2, 4, 20, rng)
        assert verify_selector_exact(fam) is None

    def test_k_one_yields_singletons(self):
        rng = derive_stream(5, "gen")
        fam = generate_selector_random(8, 8, 1, 20, rng)
        assert all(len(s) == 1 for s in fam.sets)
        assert verify_selector_exact(fam) is None

    def test_lightness_bound_is_structural(self):
        rng = derive_stream(6, "gen")
        fam = generate_selector_random(32, 8, 8, 20, rng)
        assert all(len(s) <= 8 for s in fam.sets)

    def test_failure_carries_best_fraction(self):
        rng = derive_stream(7, "gen")
        # omega=2 over n=16 with a tiny family budget cannot cover singletons.
        with pytest.raises(SelectorGenerationFailure) as err:
            generate_selector_random(16, 2, 1, 2, rng, growth_const=0.01)
        assert 0 < err.value.best_failure_fraction <= 1


class TestDilute:
    def test_forced_partition(self):
        fam = SelectorFamily(4, 2, 4, ((1, 2, 3, 4),))
        assert dilute(fam, 2).sets == ((1, 2), (3, 4))

    def test_identity_when_k_not_binding(self):
        fam = SelectorFamily(4, 2, 2, ((1, 2), (3,)))
        assert dilute(fam, 2) is fam

    def test_preserves_exact_ok(self):
        rng = derive_stream(8, "gen")
        fam = generate_selector_random(8, 4, 8, 20, rng)
        assert verify_selector_exact(fam) is None
        thin = dilute(fam, 2)
        assert all(len(s) <= 2 for s in thin.sets)
        assert verify_selector_exact(thin) is None

    def test_chunks_follow_sorted_order(self):
        fam = SelectorFamily(6, 2, 6, ((6, 1, 4, 2, 5),))
        assert dilute(fam, 2).sets == ((1, 2), (4, 5), (6,))


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


class TestGaloisField:
    @pytest.fixture(scope="class", params=PRIME_POWERS)
    def tables(self, request):
        q = request.param
        gf = sel.GaloisField(q)
        add = [[gf.add(a, b) for b in range(q)] for a in range(q)]
        mul = [[gf.mul(a, b) for b in range(q)] for a in range(q)]
        return q, add, mul

    def test_other_orders_are_rejected(self):
        for q in set(range(33)) - set(PRIME_POWERS):
            with pytest.raises(ValueError):
                sel.GaloisField(q)

    def test_results_stay_in_the_field(self, tables):
        q, add, mul = tables
        assert all(0 <= v < q for row in add + mul for v in row)

    def test_zero_and_one_are_the_identities(self, tables):
        q, add, mul = tables
        for a in range(q):
            assert add[0][a] == add[a][0] == a
            assert mul[1][a] == mul[a][1] == a
            assert mul[0][a] == mul[a][0] == 0

    def test_every_nonzero_element_has_exactly_one_inverse(self, tables):
        q, _, mul = tables
        for a in range(1, q):
            assert mul[a].count(1) == 1
            assert mul[a].index(1) == [row[a] for row in mul].index(1)

    def test_mul_distributes_over_add(self, tables):
        q, add, mul = tables
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


class TestSuperimposedCodes:
    def test_kautz_singleton_small_field(self):
        code = kautz_singleton(2, 20)
        assert code.q == 5 and code.a == 25
        assert verify_disjunct(code, 2) is None

    def test_kautz_singleton_prime_power_field(self):
        code = kautz_singleton(2, 16)
        assert code.q == 4 and code.a == 16
        assert verify_disjunct(code, 2) is None

    def test_columns_have_q_ones(self):
        code = kautz_singleton(2, 20)
        cols = code.columns()
        assert all(len(cols[j]) == code.q for j in range(1, code.b + 1))

    def test_one_disjunct_is_an_antichain(self):
        code = kautz_singleton(1, 5)
        assert verify_disjunct(code, 1) is None

    def test_further_checkable_instances_are_disjunct(self):
        for d, b in ((3, 10), (2, 9), (4, 8)):
            code = kautz_singleton(d, b)
            assert verify_disjunct(code, d) is None, (d, b)

    def test_identity_codes_maximally_disjunct(self):
        for b in range(2, 11):
            code = identity_code(b)
            for d in range(1, b):
                assert verify_disjunct(code, d) is None

    def test_duplicate_columns_fail_immediately(self):
        rows = (frozenset({1, 2}), frozenset({1, 2}), frozenset({3,}))
        code = sel.SuperimposedCode(3, 3, 1, rows)
        witness = verify_disjunct(code, 1)
        assert witness == (1, (2,))

    def test_verify_guard(self):
        code = identity_code(64)
        with pytest.raises(TooLargeError):
            verify_disjunct(code, 20)


class TestDispersers:
    def test_complete_graph_always_disperses(self):
        rng = derive_stream(9, "disp")
        g = random_disperser(6, 3, 6, 3.0, 0.0, rng)
        assert g.w == 6
        assert verify_disperser(g) is None

    def test_degree_invariant(self):
        rng = derive_stream(10, "disp")
        g = random_disperser(12, 3, 4, 2.0, 0.5, rng)
        assert g.w == 6
        assert all(len(nbrs) == 4 for nbrs in g.adjacency)
        assert all(len(set(nbrs)) == 4 for nbrs in g.adjacency)

    def test_shared_neighborhood_counterexample(self):
        g = Disperser(n=3, ell=1, d=1, delta=1.0, eps=0.0, w=1 * 1,
                      adjacency=((1,), (1,), (1,)))
        # eps=0 demands full coverage of W by every single vertex; w=1 holds.
        assert verify_disperser(g) is None
        g2 = Disperser(n=3, ell=1, d=1, delta=0.5, eps=0.0, w=2,
                       adjacency=((1,), (1,), (2,)))
        assert verify_disperser(g2) == (1,)

    def test_exhaustion_reports_verdict_on_midsize_instance(self):
        # n=12, ell=3, d=4, delta=2, eps=0.5: exhaustive over all C(12,3)
        # triples; the frozen seed must give a definite verdict either way.
        rng = derive_stream(14, "disp")
        g = random_disperser(12, 3, 4, 2.0, 0.5, rng)
        assert g.w == 6
        verdict = verify_disperser(g)
        assert verdict is None or (len(verdict) == 3 and all(1 <= v <= 12 for v in verdict))

    def test_random_graphs_usually_disperse_at_generous_degree(self):
        import math
        n, ell, delta, eps = 16, 4, 2.0, 0.5
        d = math.ceil(2 * delta * math.log(n) / eps)  # 12
        passes = 0
        for seed in range(10):
            rng = derive_stream(seed, "disp.batch")
            g = random_disperser(n, ell, d, delta, eps, rng)
            if verify_disperser(g) is None:
                passes += 1
        assert passes >= 9

    def test_degree_cannot_exceed_w(self):
        rng = derive_stream(11, "disp")
        with pytest.raises(ValueError):
            random_disperser(4, 1, 3, 2.0, 0.5, rng)  # w = ceil(3/2) = 2 < d


class TestPolyConstruction:
    def build_inputs(self, seed=12):
        rng = derive_stream(seed, "poly")
        g = random_disperser(16, 2, 3, 1.0, 0.5, rng)
        assert verify_disperser(g) is None
        code = kautz_singleton(2, 16)
        return g, code

    def test_small_n_takes_singleton_branch(self):
        g, code = self.build_inputs()
        fam = construct_selector_poly(16, 8, 4, PolyParams(c=2), g, code)
        assert fam.provenance == "singletons"
        assert fam.sets == tuple((i,) for i in range(1, 17))
        assert verify_selector_exact(fam) is None

    def test_forced_splice_passes_exact_oracle(self):
        g, code = self.build_inputs()
        fam = construct_selector_poly(16, 8, 4, PolyParams(c=2, alpha=0.0), g, code)
        assert fam.provenance == "poly"
        assert all(len(s) <= 4 for s in fam.sets)
        assert verify_selector_exact(fam) is None

    def test_splice_sets_cover_row_neighborhood_intersections(self):
        g, code = self.build_inputs()
        fam = construct_selector_poly(16, 8, 4, PolyParams(c=2, alpha=0.0), g, code)
        reach = [set() for _ in range(g.w + 1)]
        for v in range(1, 17):
            for w_node in g.adjacency[v - 1]:
                reach[w_node].add(v)
        expected = []
        for x in range(1, g.w + 1):
            for y in range(1, code.a + 1):
                f = sorted(code.rows[y - 1] & reach[x])
                for i in range(0, len(f), 4):
                    expected.append(tuple(f[i:i + 4]))
        assert fam.sets == tuple(expected)

    def test_rejects_mismatched_code_width(self):
        g, _ = self.build_inputs()
        with pytest.raises(PreconditionUnverified):
            construct_selector_poly(16, 8, 4, PolyParams(c=2), g, kautz_singleton(2, 20))

    def test_rejects_insufficient_disjunctness(self):
        g, code = self.build_inputs()
        with pytest.raises(PreconditionUnverified):
            construct_selector_poly(16, 8, 4, PolyParams(c=8), g, code)


class TestFamilyValidation:
    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            SelectorFamily(4, 2, 2, ())

    def test_oversize_set_rejected(self):
        with pytest.raises(ValueError):
            SelectorFamily(4, 2, 1, ((1, 2),))

    def test_out_of_range_elements_rejected(self):
        with pytest.raises(ValueError):
            SelectorFamily(4, 2, 2, ((0, 1),))
        with pytest.raises(ValueError):
            SelectorFamily(4, 2, 2, ((4, 5),))

    def test_sets_are_normalized_sorted_unique(self):
        fam = SelectorFamily(5, 2, 3, ((3, 1, 3),))
        assert fam.sets == ((1, 3),)


class TestJsonInterchange:
    def test_round_trip(self, tmp_path):
        rng = derive_stream(13, "json")
        fam = generate_selector_random(8, 4, 4, 20, rng)
        path = tmp_path / "family.json"
        sel.save_family_file(path, fam)
        loaded = sel.load_family_file(path)
        assert loaded == (fam,)

    def test_list_of_families(self, tmp_path):
        fams = [singletons(4, 2), singletons(4, 4)]
        path = tmp_path / "families.json"
        sel.save_family_file(path, fams)
        assert sel.load_family_file(path) == tuple(fams)

    def test_empty_list_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]\n")
        with pytest.raises(ValueError, match="no families"):
            sel.load_family_file(path)

    def test_malformed_document_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4}))
        with pytest.raises(ValueError):
            sel.load_family_file(path)

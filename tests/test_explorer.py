import hashlib
import itertools
import random
from collections import Counter

import pytest

from nanocob.algebra import InvolutiveAlphabet, PhiSpec
from nanocob.explorer import (
    COBORDANT,
    DISTINCT,
    EnumerationGuard,
    NOT_SLICE,
    SLICE,
    UNKNOWN,
    ClassificationTable,
    _assert_sound,
    classify,
    classify_words,
    enumerate_matchings,
    enumerate_nanowords,
    invariant_record,
    obstruction,
    random_nanoword,
    random_skew_pairing,
    random_surgery_instance,
    slice_status,
    slice_verdict,
    suite_bridge_inequality,
)
from nanocob import explorer, moves
from nanocob.moves import Caps, Move, bounded_bfs, key_images
from nanocob.pairings import (
    genus,
    is_hyperbolic,
    pairing_of_nanoword,
    phi_sign_battery,
    r_of,
    sum_pairings,
    u_polynomial,
)
from nanocob.words import Nanoword

import _record_oracle as record_oracle


class TestEnumeration:
    def test_single_fixed_point(self):
        ground = InvolutiveAlphabet.build(("a",), {"a": "a"})
        words = enumerate_nanowords(1, ground)
        assert len(words) == 1
        assert words[0].canonical_form().letter_seq() == ("L1", "L1")

    @pytest.mark.parametrize(
        "ground",
        [*explorer._SUITE_ALPHABETS, InvolutiveAlphabet.plus_minus(), InvolutiveAlphabet.build((), {})],
        ids=["one-orbit", "two-orbits", "orbit-and-fixed", "plus-minus", "no-symbols"],
    )
    def test_half_length_zero_is_the_empty_word(self, ground):
        assert enumerate_nanowords(0, ground, allow_large=True) == [Nanoword.empty(ground)]

    def test_matching_count_double_factorial(self):
        assert len(list(enumerate_matchings(2))) == 3
        assert len(list(enumerate_matchings(3))) == 15
        assert len(list(enumerate_matchings(4))) == 105

    def test_count_formula(self, two_free):
        small = InvolutiveAlphabet.fixed_point_free(("a",), ("A",))
        assert len(enumerate_nanowords(2, small)) == 3 * 4
        assert len(enumerate_nanowords(3, small)) == 15 * 8

    def test_words_distinct_and_canonical(self):
        """Each enumerated word is its own canonical form and the count is
        (2n-1)!! * |alphabet|^n, so no deduplication is needed."""
        alphabets = (
            InvolutiveAlphabet.fixed_point_free(("a",), ("x",)),
            InvolutiveAlphabet.fixed_point_free(("a", "b"), ("x", "y")),
            InvolutiveAlphabet.build(("a",), {"a": "a"}),
        )
        for ground in alphabets:
            for n in range(5):
                words = enumerate_nanowords(n, ground, allow_large=True)
                double_factorial = 1
                for k in range(1, 2 * n, 2):
                    double_factorial *= k
                assert len(words) == double_factorial * len(ground.symbols) ** n
                assert all(w == w.canonical_form() for w in words)
                assert len({w.canonical_key() for w in words}) == len(words)

    def test_against_generate_and_dedupe_oracle(self):
        ground = InvolutiveAlphabet.fixed_point_free(("a",), ("A",))
        n = 3
        seen = set()
        positions = list(range(2 * n))
        for perm in itertools.permutations(positions):
            pairs = sorted(
                tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n)
            )
            for labels in itertools.product(ground.symbols, repeat=n):
                seq = [0] * (2 * n)
                for cid, (i, j) in enumerate(pairs):
                    seq[i] = cid
                    seq[j] = cid
                w = Nanoword(
                    ground,
                    tuple(seq),
                    tuple(labels),
                    tuple(f"L{k+1}" for k in range(n)),
                )
                seen.add(w.canonical_key())
        assert len(enumerate_nanowords(n, ground)) == len(seen)

    def test_guard_on_large_requests(self, two_free):
        with pytest.raises(EnumerationGuard):
            enumerate_nanowords(7, two_free)
        big = InvolutiveAlphabet.fixed_point_free(
            ("a", "b", "c", "d"), ("A", "B", "C", "D")
        )
        with pytest.raises(EnumerationGuard):
            enumerate_nanowords(2, big)
        assert enumerate_nanowords(2, big, allow_large=True)
        # 29!! * 2^15 words outnumber sys.maxsize, so no list can hold them
        small = InvolutiveAlphabet.fixed_point_free(("a",), ("A",))
        with pytest.raises(EnumerationGuard, match="more than"):
            enumerate_nanowords(15, small, allow_large=True)


class TestInvariantRecord:
    def test_linked_pair_gamma(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        rec = invariant_record(w)
        assert rec.gamma.syllables == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
        assert not rec.hyperbolic
        assert rec.r.is_zero()

    def test_symmetric_word_hyperbolic(self, two_free, word_factory):
        rec = invariant_record(word_factory(two_free, "ABBA", A="a", B="b"))
        assert rec.hyperbolic
        assert rec.gamma.is_identity()

    def test_empty_word_trivial(self, two_free):
        rec = invariant_record(Nanoword.empty(two_free))
        assert rec.gamma.is_identity()
        assert rec.u.is_zero()
        assert rec.hyperbolic
        assert all(twice == 0 for _, twice in rec.genera)


# The three alphabets of the check-slice benchmark, with the coefficient
# maps the record tests use on each: the sign battery, a rational map as
# ``--phi`` gives it, and on the mixed alphabet GF(2) and GF(3) maps.
ONE_ORBIT = InvolutiveAlphabet.fixed_point_free(("a",), ("x",))
TWO_ORBITS = InvolutiveAlphabet.fixed_point_free(("a", "b"), ("x", "y"))
ORBIT_AND_FIXED = InvolutiveAlphabet.build(("a", "x", "c"), {"a": "x", "x": "a", "c": "c"})
RECORD_MAPS = {
    ONE_ORBIT: (
        phi_sign_battery(ONE_ORBIT),
        (PhiSpec.rationals(ONE_ORBIT, {"a": 2}),),
    ),
    TWO_ORBITS: (
        phi_sign_battery(TWO_ORBITS),
        (PhiSpec.rationals(TWO_ORBITS, {"a": 2, "b": -3}),),
    ),
    ORBIT_AND_FIXED: (
        phi_sign_battery(ORBIT_AND_FIXED),
        (PhiSpec.rationals(ORBIT_AND_FIXED, {"a": 2}),),
        (
            PhiSpec.prime_field(ORBIT_AND_FIXED, 2, {"a": 1, "c": 1}),
            PhiSpec.prime_field(ORBIT_AND_FIXED, 3, {"a": 1}),
        ),
    ),
}
# Gamma, u and every genus vanish, and the pairing is not hyperbolic: the
# one such word among 6,000 random 5-6 letter words.
PAIRING_OBSTRUCTED = Nanoword.from_names(
    ORBIT_AND_FIXED,
    "ABCDEBDFACFE",
    {"A": "c", "B": "c", "C": "c", "D": "a", "E": "c", "F": "x"},
)
GENUS_OBSTRUCTED = Nanoword.from_names(ONE_ORBIT, "ABACDCBD", {"A": "a", "B": "a", "C": "x", "D": "a"})


class TestLazyRecord:
    def test_matches_eager_record(self):
        """On seeded random words the lazy record and the eager one it
        replaced give the same key, obstruction, verdict and witness."""
        rng = random.Random(15)
        caps = Caps(bfs_nodes=30)
        named = Counter()
        cases = [(PAIRING_OBSTRUCTED, phi_sign_battery(ORBIT_AND_FIXED))]
        cases += [(GENUS_OBSTRUCTED, maps) for maps in RECORD_MAPS[ONE_ORBIT]]
        for _ in range(300):
            ground = rng.choice(list(RECORD_MAPS))
            w = random_nanoword(rng, ground, rng.randint(0, 6))
            cases.append((w, rng.choice(RECORD_MAPS[ground])))
        for w, phis in cases:
            lazy, eager = invariant_record(w, phis), record_oracle.invariant_record(w, phis)
            assert lazy.cobordism_key() == eager.cobordism_key(), w
            assert obstruction(lazy) == obstruction(eager), w
            lazy_verdict, eager_verdict = slice_verdict(lazy, caps), slice_verdict(eager, caps)
            assert str(lazy_verdict) == str(eager_verdict), w
            logs = [v.witness.to_log() if v.witness else None for v in (lazy_verdict, eager_verdict)]
            assert logs[0] == logs[1], w
            named[obstruction(eager)] += 1
        # every verdict path is taken
        assert set(named) == {"gamma", "u", "genus", "pairing", None}, named

    def test_invariants_of_word_as_given(self):
        """The record reads every invariant off the canonical form; each
        equals the kernel's value on the word as given, whose letter ids
        are permuted and whose letters are renamed."""
        rng = random.Random(33)
        for _ in range(300):
            ground = rng.choice(list(RECORD_MAPS))
            canonical = random_nanoword(rng, ground, rng.randint(0, 6))
            ids = list(range(canonical.num_letters))
            rng.shuffle(ids)
            proj = [""] * len(ids)
            for old, new in enumerate(ids):
                proj[new] = canonical.proj[old]
            names = [f"Q{k}" for k in ids]
            rng.shuffle(names)
            w = Nanoword(ground, tuple(ids[x] for x in canonical.seq), tuple(proj), tuple(names))
            phis = rng.choice(RECORD_MAPS[ground])
            record = invariant_record(w, phis)
            p = pairing_of_nanoword(w)
            assert record.word == canonical, w
            assert record.gamma == w.gamma(), w
            assert record.gamma_cyclic == w.gamma().cyclic_key(), w
            assert record.u == u_polynomial(p), w
            assert record.genera == tuple((phi.label(), genus(p, phi).twice) for phi in phis), w
            assert record.hyperbolic == (is_hyperbolic(p) is not None), w
            assert record.r == r_of(p), w

    def test_hyperbolic_pairings_have_genus_zero(self):
        """The shortcut the genera take: an annihilating filling has a zero
        Gram matrix under every map, so the genus is 0 under every map."""
        rng = random.Random(15)
        checked = Counter()
        for _ in range(1500):
            ground = rng.choice(list(RECORD_MAPS))
            kind = rng.choice(("skew", "word", "skew plus opposite"))
            if kind == "word":
                p = pairing_of_nanoword(random_nanoword(rng, ground, rng.randint(0, 5)))
            else:
                p = random_skew_pairing(rng, ground, rng.randint(1, 3))
                if kind == "skew plus opposite":
                    p = sum_pairings(p, p.opposite())
            if is_hyperbolic(p) is None:
                continue
            for phi in itertools.chain.from_iterable(RECORD_MAPS[ground]):
                assert genus(p, phi).twice == 0, (p.coords, phi.label())
                checked[kind] += 1
        assert min(checked.values()) >= 100, checked

    @staticmethod
    def count_kernel_calls(monkeypatch) -> Counter:
        calls = Counter()
        for name in ("pairing_of_nanoword", "genus", "is_hyperbolic"):
            real = getattr(explorer, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(explorer, name, counted)
        return calls

    def test_gamma_verdict_builds_no_pairing(self, monkeypatch):
        w = Nanoword.from_names(TWO_ORBITS, "ABAB", {"A": "a", "B": "b"})
        calls = self.count_kernel_calls(monkeypatch)
        assert str(slice_status(w)) == "NotSlice(gamma)"
        assert calls == Counter()

    def test_u_verdict_skips_genera_and_hyperbolicity(self, monkeypatch):
        letters = ["L1", "L2", "L1", "L3", "L2", "L3"]
        w = Nanoword.from_names(ONE_ORBIT, letters, {"L1": "a", "L2": "a", "L3": "x"})
        calls = self.count_kernel_calls(monkeypatch)
        assert str(slice_status(w)) == "NotSlice(u)"
        assert calls == Counter(pairing_of_nanoword=1)

    def test_hyperbolic_word_skips_genera(self, monkeypatch):
        w = Nanoword.from_names(ONE_ORBIT, "ABBA", {"A": "a", "B": "x"})
        calls = self.count_kernel_calls(monkeypatch)
        assert slice_status(w).status == SLICE
        assert calls == Counter(pairing_of_nanoword=1, is_hyperbolic=1)

    def test_fields_are_computed_once(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        record = invariant_record(PAIRING_OBSTRUCTED)
        assert calls == Counter()
        for _ in range(2):
            record.cobordism_key()
        assert calls == Counter(pairing_of_nanoword=1, is_hyperbolic=1, genus=1)


class TestSliceStatus:
    def test_same_orbit_pairs_slice(self, two_free, word_factory):
        assert slice_status(word_factory(two_free, "ABAB", A="a", B="a")).status == SLICE
        verdict = slice_status(word_factory(two_free, "ABAB", A="a", B="A"))
        assert verdict.status == SLICE
        assert verdict.witness.replay(
            word_factory(two_free, "ABAB", A="a", B="A")
        ).length == 0

    def test_distinct_orbits_not_slice_by_gamma(self, two_free, word_factory):
        verdict = slice_status(word_factory(two_free, "ABAB", A="a", B="b"))
        assert verdict.status == NOT_SLICE and verdict.obstruction == "gamma"

    def test_pairing_obstruction_with_trivial_gamma(self, two_free, word_factory):
        w = word_factory(two_free, "ABCBAC", A="a", B="a", C="a")
        verdict = slice_status(w)
        assert verdict.status == NOT_SLICE
        assert verdict.obstruction in ("u", "genus", "pairing")
        assert w.gamma().is_identity()

    def test_unknown_under_tight_caps(self, word_factory):
        # with the needed factor size out of reach and a tiny node budget,
        # the verdict must stay Unknown, never flip to NotSlice
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCADCBD", A="a", B="A", C="c", D="c")
        verdict = slice_status(
            w, Caps(max_letters=2, max_k=2, bfs_nodes=40, bfs_length=8)
        )
        assert verdict.status == UNKNOWN

    def test_two_segment_factor_slices_the_hyperbolic_word(self, word_factory):
        # gamma and the pairing invariants all vanish here, and the search
        # finds an honest one-surgery witness: the factor (AB | CADCBD) is
        # even and mirror-symmetric via the letter swap (A B)(C D)
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCADCBD", A="a", B="A", C="c", D="c")
        verdict = slice_status(w)
        assert verdict.status == SLICE
        assert verdict.witness.replay(w).length == 0
        from nanocob.pairings import verify_surgery_filling

        assert verify_surgery_filling(w, Move("SURG", ((0, 1, 2, 3), ((0, 2), (2, 8)))))

    @pytest.mark.parametrize("forged", ["SHIFT", "H1@0"], ids=["wrong-end", "no-site"])
    def test_forged_witness_is_not_slice(self, monkeypatch, forged):
        """The search reads child keys without applying their moves, so a
        forged edge to the empty word must be caught where the verdict
        leaves: a move that ends elsewhere, or one that does not apply."""
        ground = InvolutiveAlphabet.fixed_point_free(("a",), ("x",))
        record = invariant_record(Nanoword.from_names(ground, "ABBA", {"A": "a", "B": "x"}))
        assert obstruction(record) is None
        edge = (Move.from_line(forged), Nanoword.empty(ground).canonical_key())
        monkeypatch.setattr(moves, "neighbors", lambda *args: iter([edge]))
        with pytest.raises(AssertionError, match="slice witness"):
            slice_verdict(record)

    def test_symmetric_case_of_open_family_is_slice(self, word_factory):
        # |A| = |D| makes the word symmetric, hence slice
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCADCBD", A="a", B="A", C="a", D="a")
        assert w.to_phrase().symmetry_witness() is not None
        assert slice_status(w).status == SLICE


class TestClassification:
    def test_length_four_reproduces_linked_pair_classification(self, two_free):
        table = classify(2, two_free, allow_large=True)
        rows = {tuple(r.record.word.proj): r for r in table.rows
                if r.record.word.canonical_form().letter_seq() == ("L1", "L2", "L1", "L2")}
        assert len(rows) == 16
        same_orbit = 0
        for (pa, pb), row in rows.items():
            if two_free.orbit_rep(pa) == two_free.orbit_rep(pb):
                assert row.verdict.status == SLICE
                same_orbit += 1
            else:
                assert row.verdict.status == NOT_SLICE
        assert same_orbit == 8
        non_slice = [r for r in rows.values() if r.verdict.status == NOT_SLICE]
        for r1 in non_slice:
            for r2 in non_slice:
                status = table.pair_status(r1.index, r2.index)
                if r1.index == r2.index:
                    assert status == COBORDANT
                else:
                    assert status == DISTINCT

    def test_slice_words_merge_into_one_class(self, two_free):
        table = classify(2, two_free, allow_large=True)
        components = {
            r.component for r in table.rows if r.verdict.status == SLICE
        }
        assert len(components) == 1

    def test_eight_letter_example_cobordant_to_empty(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABACDCDB", A="a", B="a", C="c", D="c")
        table = classify_words([w, Nanoword.empty(ground)])
        assert table.pair_status(0, 1) == COBORDANT

    def test_buckets_reproducible(self, two_free):
        t1 = classify(2, two_free, allow_large=True)
        t2 = classify(2, two_free, allow_large=True)
        assert t1.fields() == t2.fields()

    def test_csv_shape(self, two_free):
        table = classify(1, two_free, allow_large=True)
        rows = table.fields()
        assert rows[0][:4] == ["index", "word", "proj", "length"]
        assert len(rows) == 1 + len(table.rows)
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_unknown_pair_under_starved_caps(self, two_free, word_factory):
        # w1 is slice through a 2-letter factor; with factors capped at one
        # letter and no room to grow, the search cannot see it, and the
        # pair must be reported unknown rather than guessed either way
        w1 = word_factory(two_free, "ABAB", A="a", B="A")
        w2 = Nanoword.empty(two_free)
        caps = Caps(max_letters=1, max_k=1, bfs_nodes=5, bfs_length=4)
        table = classify_words([w1, w2], caps)
        assert table.rows[0].verdict.status == UNKNOWN
        assert table.pair_status(0, 1) == UNKNOWN

    @pytest.mark.parametrize(
        "proj, caps, status",
        [
            ({"A": "a", "B": "b"}, Caps(), NOT_SLICE),
            ({"A": "a", "B": "A"}, Caps(max_letters=1, max_k=1, bfs_nodes=5, bfs_length=4), UNKNOWN),
        ],
        ids=["obstructed", "starved"],
    )
    def test_equal_words_share_a_component(self, two_free, word_factory, proj, caps, status):
        """A merge search's reached set holds its start, so a repeated word
        joins its first copy, also when the search stops at the node cap.
        Neither copy is Slice, so only the merge loop can join them."""
        w = word_factory(two_free, "ABAB", **proj)
        table = classify_words([w, w], caps)
        assert table.rows[0].verdict.status == status
        assert table.rows[0].component == table.rows[1].component == 0

    def test_no_merge_search_from_slice_row(self, two_free, word_factory, monkeypatch):
        """The empty word before ``ABAB`` under the starved caps above: the
        slice row starts no merge search, so the table makes only the two
        verdict searches.  This is what the skip gives up: a search from
        the empty word reaches ``ABAB`` by inserting the ``AB | AB``
        template, which ``ABAB``'s own search cannot undo under these caps,
        so the pair stays unknown."""
        searches = []

        def counted(w, v, *args, **kwargs):
            searches.append((w.canonical_key(), v is None))
            return bounded_bfs(w, v, *args, **kwargs)

        monkeypatch.setattr(explorer, "bounded_bfs", counted)
        empty = Nanoword.empty(two_free)
        w = word_factory(two_free, "ABAB", A="a", B="A")
        caps = Caps(max_letters=1, max_k=1, bfs_nodes=5, bfs_length=4)
        table = classify_words([empty, w], caps)
        assert [row.verdict.status for row in table.rows] == [SLICE, UNKNOWN]
        assert table.pair_status(0, 1) == UNKNOWN
        assert searches == [(empty.canonical_key(), False), (w.canonical_key(), False)]

    def test_phi_battery_size(self, two_free, mixed):
        from nanocob.pairings import phi_sign_battery

        assert len(phi_sign_battery(two_free)) == 2  # 2^2 signs mod negation
        assert len(phi_sign_battery(mixed)) == 1
        three = InvolutiveAlphabet.fixed_point_free(
            ("a", "b", "c"), ("A", "B", "C")
        )
        assert len(phi_sign_battery(three)) == 4

    def test_phi_battery_kept_per_alphabet(self):
        """Equal alphabets share one battery: its maps are built once."""
        first = phi_sign_battery(InvolutiveAlphabet.fixed_point_free(("a", "b"), ("A", "B")))
        again = phi_sign_battery(InvolutiveAlphabet.fixed_point_free(("a", "b"), ("A", "B")))
        assert again is first


def pairwise_components(words, caps=Caps()):
    """The merge that one search per word replaced: a targeted search for
    every pair of a bucket not yet in one component."""
    records = [invariant_record(w) for w in words]
    verdicts = [slice_status(w, caps) for w in words]
    parent = list(range(len(words)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)

    slice_members = [i for i, v in enumerate(verdicts) if v.status == SLICE]
    for i, j in zip(slice_members, slice_members[1:]):
        union(i, j)
    merge_caps = caps.replace(bfs_nodes=min(caps.bfs_nodes, 600))
    buckets = {}
    for i, rec in enumerate(records):
        buckets.setdefault(rec.cobordism_key(), []).append(i)
    for members in buckets.values():
        for i, j in itertools.combinations(members, 2):
            if find(i) == find(j):
                continue
            if (
                records[i].word.canonical_key() == records[j].word.canonical_key()
                or bounded_bfs(words[i], words[j], merge_caps).equivalent
            ):
                union(i, j)
    return [find(i) for i in range(len(words))]


class TestReachedSetMerge:
    def components(self, words, caps=Caps()):
        return [row.component for row in classify_words(words, caps).rows]

    def test_two_orbit_table(self, two_free):
        words = enumerate_nanowords(2, two_free, allow_large=True)
        assert self.components(words) == pairwise_components(words)

    @pytest.mark.parametrize("half_length", [0, 1, 2, 3])
    def test_fixed_point_tables(self, half_length):
        words = enumerate_nanowords(half_length, InvolutiveAlphabet.build(("a",), {"a": "a"}))
        assert self.components(words) == pairwise_components(words)

    def test_starved_caps(self, two_free, word_factory):
        caps = Caps(max_letters=1, max_k=1, bfs_nodes=5, bfs_length=6)
        words = enumerate_nanowords(2, two_free, allow_large=True) + [
            word_factory(two_free, "ABAB", A="a", B="A")
        ]
        components = self.components(words, caps)
        assert components == pairwise_components(words, caps)
        assert len(set(components)) > 1

    def test_one_orbit_table(self):
        words = enumerate_nanowords(3, InvolutiveAlphabet.fixed_point_free(("a",), ("x",)))
        assert self.components(words) == pairwise_components(words)

    def test_one_search_per_left_word(self, monkeypatch):
        """The one-orbit half-length-3 table makes 3 merge searches.  With
        each search filed under its start key alone it makes 10, and the 7
        it no longer makes start at images (``key_images``) of the 3."""
        starts = []

        def counting_bfs(w, v, *args, **kwargs):
            if v is None:
                starts.append(w.canonical_key())
            return bounded_bfs(w, v, *args, **kwargs)

        monkeypatch.setattr(explorer, "bounded_bfs", counting_bfs)
        ground = InvolutiveAlphabet.fixed_point_free(("a",), ("x",))
        classify(3, ground)
        searched = list(starts)
        assert len(searched) == len(set(searched)) == 3
        starts.clear()
        monkeypatch.setattr(explorer, "key_images", lambda ground, key: (key,) * 4)
        classify(3, ground)
        assert len(starts) == len(set(starts)) == 10
        images = {image for key in searched for image in key_images(ground, key)}
        assert set(starts) - set(searched) <= images
        assert len(set(starts) - set(searched)) == 7


class TestSoundnessCheck:
    def test_mixed_component_rejected(self, two_free, word_factory):
        words = [
            word_factory(two_free, "ABAB", A="a", B="b"),
            Nanoword.empty(two_free),
            word_factory(two_free, "AA", A="a"),
        ]
        table = classify_words(words)
        _assert_sound(table)
        assert table.rows[0].component != table.rows[1].component
        planted = ClassificationTable(tuple(row.replace(component=0) for row in table.rows))
        with pytest.raises(AssertionError):
            _assert_sound(planted)


class TestRecordInvariance:
    def test_records_constant_along_replayed_witnesses(self):
        """Every intermediate word of a zero-arch move sequence carries
        the same invariant record fields."""
        from nanocob.moves import bounded_bfs

        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        for letters, proj in (
            ("ABACDCDB", {"A": "a", "B": "a", "C": "c", "D": "c"}),
            ("ABBA", {"A": "a", "B": "c"}),
            ("ABAB", {"A": "a", "B": "A"}),
        ):
            w = Nanoword.from_names(ground, letters, proj)
            out = bounded_bfs(w, Nanoword.empty(ground))
            assert out.equivalent
            assert out.metamorphosis.total_arches == 0
            current = w.canonical_form()
            reference = invariant_record(current).cobordism_key()
            for move in out.metamorphosis.moves:
                current = move.apply(current).canonical_form()
                assert invariant_record(current).cobordism_key() == reference
            assert current.length == 0


class TestPlantedInstances:
    """The move and surgery instances are planted through ``insert_phrase``.
    Each digest covers 200 draws per seed and was taken with the planting
    code they replaced; only letter names may differ from it."""

    MOVE_DIGESTS = (
        "b0250b894014247d8d9572a48fea9deb21968f9bc06787c354bd93d3ade60c1e",
        "6ad28b48f6bc13c4c7850f64202473921a81785f8e1bcb833824f58c1168ffb4",
        "77399a0f18df43b8573221ce0f3c7089ba07361c345a101a16ca171de742ef1e",
    )
    SURGERY_DIGESTS = (
        "2004f59ca3397c487a4fec1cbba8ee4a70fdf61a1f8ce93cba0b2ca557a3452e",
        "2f9172600022611ba3abf3e0ebc8f5ebdea17430e79a29fc4607a025325c7eea",
        "68824331654ee51a1b1728869175db5bd8ea2b67fd74c31d71bd43e9769dd123",
    )

    @staticmethod
    def digest(rows) -> str:
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    @pytest.mark.parametrize("seed", range(3))
    def test_move_instances_pinned(self, seed):
        rng = random.Random(seed)
        rows = []
        for _ in range(200):
            ground = explorer._random_alphabet(rng)
            w, move = explorer._random_move_instance(rng, ground)
            moved = move.apply(w)
            rows.append((move.kind, w.seq, w.proj, moved.seq, moved.proj))
        assert self.digest(rows) == self.MOVE_DIGESTS[seed]

    @pytest.mark.parametrize("seed", range(3))
    def test_surgery_instances_pinned(self, seed):
        rng = random.Random(seed)
        rows = []
        for _ in range(200):
            ground = explorer._random_alphabet(rng)
            w, surgery = random_surgery_instance(rng, ground)
            x = surgery.apply(w)
            rows.append((w.seq, w.proj, *surgery.data, x.seq, x.proj))
        assert self.digest(rows) == self.SURGERY_DIGESTS[seed]


class TestGrowingFamilies:
    def test_concatenation_powers_have_distinct_polynomials(self, two_free):
        """Iterated concatenation of the linked pair produces pairwise
        distinct polynomial invariants, so the classes keep growing."""
        from nanocob.pairings import u_polynomial_of_nanoword

        w = Nanoword.from_names(two_free, "ABAB", {"A": "a", "B": "b"})
        family = []
        current = w
        for _ in range(6):
            family.append(u_polynomial_of_nanoword(current))
            current = current.concatenate(w)
        fingerprints = [u.fingerprint() for u in family]
        assert len(set(fingerprints)) == len(fingerprints)
        canonical = [tuple((rep, poly.terms) for rep, poly in u.entries) for u in family]
        assert len(set(canonical)) == len(canonical)

    def test_hyperbolic_pairings_have_zero_genus_everywhere(self, two_free):
        import random as _random

        from nanocob.explorer import random_nanoword
        from nanocob.pairings import genus, is_hyperbolic, pairing_of_nanoword, phi_sign_battery

        rng = _random.Random(70)
        seen_hyperbolic = 0
        for _ in range(40):
            w = random_nanoword(rng, two_free, rng.randint(1, 3))
            p = pairing_of_nanoword(w)
            if is_hyperbolic(p) is not None:
                seen_hyperbolic += 1
                for phi in phi_sign_battery(two_free):
                    assert genus(p, phi).twice == 0
        assert seen_hyperbolic > 3

    def test_pairing_cobordance_symmetric(self, two_free):
        import random as _random

        from nanocob.explorer import random_skew_pairing
        from nanocob.pairings import are_cobordant

        rng = _random.Random(71)
        for _ in range(15):
            p1 = random_skew_pairing(rng, two_free, rng.randint(0, 2))
            p2 = random_skew_pairing(rng, two_free, rng.randint(0, 2))
            assert are_cobordant(p1, p2) == are_cobordant(p2, p1)


class TestEvidenceTables:
    def test_single_fixed_point_words_all_slice_up_to_length_six(self):
        """Over a one-symbol alphabet with identity involution, every word
        with at most three letters reduces to the empty word."""
        one = InvolutiveAlphabet.build(("a",), {"a": "a"})
        for n in (1, 2, 3):
            table = classify(n, one, Caps(bfs_nodes=2000, bfs_length=2 * n + 4))
            assert all(r.verdict.status == SLICE for r in table.rows)
            assert len({r.component for r in table.rows}) == 1

    def test_one_free_orbit_length_six_fully_adjudicated(self):
        """All 120 length-6 classes over one free orbit resolve with no
        unknowns: 108 slice, 12 obstructed."""
        two = InvolutiveAlphabet.fixed_point_free(("a",), ("A",))
        table = classify(3, two, Caps(bfs_nodes=800, bfs_length=8))
        counts: dict[str, int] = {}
        for row in table.rows:
            counts[row.verdict.status] = counts.get(row.verdict.status, 0) + 1
        assert counts == {SLICE: 108, NOT_SLICE: 12}
        assert len({r.component for r in table.rows}) == 13


class TestBridgeSuite:
    def test_zero_arch_bridges_have_zero_genus_gap(self, two_free):
        rng = random.Random(60)
        from nanocob.moves import enumerate_bridges
        from nanocob.pairings import (
            genus,
            pairing_of_nanoword,
            phi_sign_battery,
            sum_pairings,
        )
        from nanocob.explorer import random_nanoword

        checked = 0
        for _ in range(10):
            w = random_nanoword(rng, two_free, rng.randint(1, 3))
            p_w = pairing_of_nanoword(w)
            for bridge in enumerate_bridges(w, 3, 3):
                if bridge.arches:
                    continue
                x = bridge.apply(w)
                total = sum_pairings(p_w, pairing_of_nanoword(x).opposite())
                for phi in phi_sign_battery(two_free):
                    assert genus(total, phi).twice == 0
                    checked += 1
        assert checked > 0

    def test_suite_runs_clean(self):
        result = suite_bridge_inequality(seed=3, words=25)
        assert result.passed

    def test_report_over_fixed_alphabet(self, two_free):
        from nanocob.explorer import bridge_inequality_suite

        report = bridge_inequality_suite(15, two_free, seed=4)
        assert report.passed
        assert report.checked > 0 and report.weak_checked > 0
        assert report.min_slack_quadrupled is not None
        assert report.min_slack_quadrupled >= 0

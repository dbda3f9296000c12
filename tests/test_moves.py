import random

import pytest
from hypothesis import given, settings, strategies as st

from nanocob.algebra import AlphabetError, InvolutiveAlphabet
from nanocob.moves import (
    DEFAULT_CAPS,
    Caps,
    Metamorphosis,
    Move,
    SearchOutcome,
    apply_h3,
    bounded_bfs,
    enumerate_bridges,
    enumerate_even_symmetric_factors,
    enumerate_factors,
    find_h1_sites,
    find_h2_sites,
    find_h3_sites,
    insert_phrase,
    inserted_segments,
    key_images,
    neighbors,
    site_moves,
    validate_bridge,
)
from nanocob import explorer
from nanocob.explorer import (
    SLICE,
    _SUITE_ALPHABETS,
    length_norm_bounds,
    random_nanoword,
    slice_status,
)
from nanocob.pairings import verify_surgery_filling
from nanocob.words import Nanoword, SymmetryWitness, WordError, mirror_witness

from _move_oracle import (
    bfs_fifo,
    bfs_storing_words,
    bridges_by_filter,
    even_symmetric_factors_by_filter,
    h2_sites_by_scan,
    h3_sites_by_scan,
    surgery_accepted_by_apply,
    surgery_accepted_by_bridge,
    surgery_witness_by_filling_checks,
)
from _phrase_route import bridge_witness, factor_phrase, phrase_witness

ALPHABETS = (
    InvolutiveAlphabet.fixed_point_free(("a", "b"), ("A", "B")),
    InvolutiveAlphabet.build(("c",), {"c": "c"}),
    InvolutiveAlphabet.build(("a", "A", "c"), {"a": "A", "A": "a", "c": "c"}),
)


def seqs(w):
    return w.canonical_form().letter_seq()


class TestH1:
    def test_site_and_apply(self, two_free, word_factory):
        w = word_factory(two_free, "AABB", A="a", B="b")
        sites = find_h1_sites(w)
        assert [m.data for m in sites] == [(0,), (2,)]
        assert seqs(Move("H1", (0,)).apply(w)) == ("L1", "L1")

    def test_no_sites_on_linked(self, two_free, word_factory):
        assert find_h1_sites(word_factory(two_free, "ABAB", A="a", B="b")) == []

    def test_two_steps_to_empty(self, two_free, word_factory):
        w = word_factory(two_free, "AABB", A="a", B="b")
        h1 = Move("H1", (0,))
        assert h1.apply(h1.apply(w)).length == 0


class TestH2:
    def test_minimal_instance(self, two_free, word_factory):
        w = word_factory(two_free, "ABBA", A="a", B="A")
        sites = find_h2_sites(w)
        assert [m.data for m in sites] == [(0, 2)]
        assert Move("H2", (0, 2)).apply(w).length == 0

    def test_projection_condition(self, two_free, word_factory):
        w = word_factory(two_free, "ABBA", A="a", B="b")
        assert find_h2_sites(w) == []

    def test_with_context(self, two_free, word_factory):
        w = word_factory(two_free, "CABBAC", C="b", A="a", B="A")
        sites = find_h2_sites(w)
        assert [m.data for m in sites] == [(1, 3)]
        assert seqs(Move("H2", (1, 3)).apply(w)) == ("L1", "L1")


class TestH3:
    def test_minimal_instance(self, two_free, word_factory):
        w = word_factory(two_free, "ABACBC", A="a", B="a", C="a")
        sites = find_h3_sites(w)
        assert [m.data for m in sites] == [(0, 2, 4)]
        out = apply_h3(w, (0, 2, 4))
        assert out.letter_seq() == ("B", "A", "C", "A", "C", "B")

    def test_projection_condition(self, two_free, word_factory):
        w = word_factory(two_free, "ABACBC", A="a", B="b", C="a")
        assert find_h3_sites(w) == []

    def test_inverse_round_trip(self, two_free, word_factory):
        w = word_factory(two_free, "ABACBC", A="a", B="a", C="a")
        assert apply_h3(apply_h3(w, (0, 2, 4)), (0, 2, 4), inverse=True) == w

    def test_length_preserved(self, two_free, word_factory):
        w = word_factory(two_free, "ABACBC", A="a", B="a", C="a")
        assert apply_h3(w, (0, 2, 4)).length == w.length


class TestSurgeryFactors:
    def test_doubled_letter_factor_found(self, two_free, word_factory):
        w = word_factory(two_free, "BAAB", A="a", B="b")
        a_id = w.names.index("A")
        factors = enumerate_even_symmetric_factors(w, 2, 4)
        assert Move("SURG", ((a_id,), ((1, 3),))) in factors

    def test_split_pair_factor_found(self, two_free, word_factory):
        w = word_factory(two_free, "ABBA", A="a", B="A")
        factors = enumerate_even_symmetric_factors(w, 2, 4)
        assert Move("SURG", ((0, 1), ((0, 2), (2, 4)))) in factors

    def test_two_segment_example(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCACDBD", A="a", B="A", C="c", D="c")
        factors = enumerate_even_symmetric_factors(w, 4, 4)
        assert Move("SURG", ((0, 1, 2, 3), ((0, 2), (2, 8)))) in factors

    def test_surgery_deletes_inner_square(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABACDCDB", A="a", B="a", C="c", D="c")
        surgery = Move("SURG", ((2, 3), ((3, 7),)))
        assert seqs(surgery.apply(w)) == ("L1", "L2", "L1", "L2")

    def test_whole_word_factor_for_symmetric(self, two_free, word_factory):
        w = word_factory(two_free, "ABBA", A="a", B="b")
        assert Move("SURG", ((0, 1), ((0, 4),))).apply(w).length == 0

    def test_two_segment_deletion_to_empty(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCACDBD", A="a", B="A", C="c", D="c")
        assert Move("SURG", ((0, 1, 2, 3), ((0, 2), (2, 8)))).apply(w).length == 0

    def test_uneven_factor_rejected(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="a")
        with pytest.raises(WordError):
            Move("SURG", ((0,), ((0, 1), (2, 3)))).apply(w)

    def test_asymmetric_factor_rejected(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        with pytest.raises(WordError):
            Move("SURG", ((0, 1), ((0, 4),))).apply(w)

    def test_h1_h2_agree_with_surgery(self, two_free, word_factory):
        w = word_factory(two_free, "CAAC", A="a", C="b")
        by_move = Move("H1", (1,)).apply(w)
        by_surgery = Move("SURG", ((w.names.index("A"),), ((1, 3),))).apply(w)
        assert by_move == by_surgery
        w2 = word_factory(two_free, "ABBA", A="a", B="A")
        assert Move("H2", (0, 2)).apply(w2) == Move("SURG", ((0, 1), ((0, 2), (2, 4)))).apply(w2)


def _malformed(rng, w, letters, segments):
    """A factor broken in one way a log line or a caller could break it."""
    letters, segments = list(letters), list(segments)
    how = rng.randrange(7)
    if how == 0 and len(letters) > 1:
        letters.pop(rng.randrange(len(letters)))  # a letter left out
    elif how == 1:
        letters.append(letters[0])  # a letter twice
    elif how == 5:
        letters.append(rng.choice((-1, w.num_letters)))  # a letter the word does not have
    elif how == 2 and len(segments) > 1:
        segments.reverse()  # segments out of order
    elif how == 3:
        start, end = segments[-1]
        segments[-1] = (start, end + rng.choice((-1, 1)))  # one entry too few or many
    elif how == 4:
        segments.append((w.length, w.length + 2))  # past the end of the word
    else:
        start, end = segments[0]
        segments[0] = (end, start)  # reversed range
    return tuple(letters), tuple(segments)


class TestSurgeryIsIdentityBridge:
    """A surgery factor is checked only through ``validate_bridge`` with
    the identity ``kappa``; it must accept exactly what the three separate
    checks it replaced accepted (``_move_oracle``)."""

    def test_matches_parent_checks_on_every_factor(self):
        rng = random.Random(61)
        accepted = filled = malformed = 0
        for trial in range(150):
            ground = ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(1, 4))
            for factor in enumerate_factors(w, 4, 4):
                letters, segments = factor
                surgery = Move("SURG", factor)
                ok = surgery_accepted_by_apply(w, letters, segments)
                assert ok == surgery_accepted_by_bridge(w, letters, segments)
                witness = surgery_witness_by_filling_checks(w, letters, segments)
                assert ok == (witness is not None)
                if not ok:
                    with pytest.raises(WordError):
                        surgery.apply(w)
                    continue
                accepted += 1
                assert surgery.apply(w) == w.delete_letters(letters)[0]
                assert validate_bridge(w, letters, segments, range(len(segments))) == witness
                if accepted % 10 == 0:
                    filled += 1
                    assert verify_surgery_filling(w, surgery)
            for factor in rng.choices(list(enumerate_factors(w, 4, 4)), k=3):
                bad = _malformed(rng, w, *factor)
                surgery = Move("SURG", bad)
                ok = surgery_accepted_by_apply(w, *bad)
                assert ok == surgery_accepted_by_bridge(w, *bad)
                if ok:
                    assert surgery.apply(w) == w.delete_letters(bad[0])[0]
                    continue
                malformed += 1
                with pytest.raises(WordError):
                    surgery.apply(w)
                with pytest.raises(WordError):
                    verify_surgery_filling(w, surgery)
        assert (accepted, filled, malformed) == (433, 43, 450)

    def test_out_of_order_segments_rejected_everywhere(self, two_free, word_factory):
        """The filling check used to accept segments given out of order."""
        w = word_factory(two_free, "AABB", A="a", B="b")
        backwards = Move("SURG", ((0, 1), ((2, 4), (0, 2))))
        assert surgery_witness_by_filling_checks(w, *backwards.data) is not None
        with pytest.raises(WordError):
            backwards.apply(w)
        with pytest.raises(WordError):
            verify_surgery_filling(w, backwards)


@pytest.mark.parametrize(
    "move",
    [Move("H3", (0, 2, 4)), Move("SHIFT", ()), Move("INS", (((0, 0),), ("a",), (0,)), inverse=True)],
    ids=["H3", "SHIFT", "INS"],
)
def test_moves_deleting_no_factor_have_none(two_free, word_factory, move):
    """H3, SHIFT and INS delete no factor: ``Move.factor`` refuses them,
    so ``verify_surgery_filling`` does too."""
    w = word_factory(two_free, "ABACBC", A="a", B="a", C="a")
    for read in (move.factor, lambda w: verify_surgery_filling(w, move)):
        with pytest.raises(WordError, match="deletes no factor"):
            read(w)


class TestInsertedSegments:
    def test_matches_insert_phrase(self):
        rng = random.Random(62)
        for trial in range(400):
            ground = ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(0, 4))
            letters = rng.randint(1, 3)
            flat = [x for x in range(letters) for _ in range(2)]
            rng.shuffle(flat)
            cuts = sorted(rng.sample(range(1, len(flat)), rng.randint(0, len(flat) - 1)))
            bounds = [0, *cuts, len(flat)]
            words = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
            proj = tuple(rng.choice(ground.symbols) for _ in range(letters))
            positions = sorted(rng.randint(0, w.length) for _ in words)
            grown = insert_phrase(w, words, proj, positions)
            segments = inserted_segments(words, positions)
            base = w.num_letters
            assert [grown.seq[s:e] for s, e in segments] == [
                tuple(base + x for x in word) for word in words
            ]
            inside = {p for s, e in segments for p in range(s, e)}
            assert inside == {p for p, x in enumerate(grown.seq) if x >= base}
            assert tuple(x for p, x in enumerate(grown.seq) if p not in inside) == w.seq


class TestEvenFactorGeneration:
    """Generating the surgery factors must match the routes it replaces:
    filtering every factor by segment parity and then by symmetry, in the
    same order."""

    @staticmethod
    def filtered(w, max_letters, max_k):
        return [
            (letters, segments)
            for letters, segments in enumerate_factors(w, max_letters, max_k)
            if not any((end - start) % 2 for start, end in segments)
        ]

    def test_matches_parity_filter_in_order(self):
        rng = random.Random(21)
        for trial in range(400):
            ground = ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(0, 6))
            max_k = 1 + trial % 4
            max_letters = rng.randint(1, 4)
            expected = self.filtered(w, max_letters, max_k)
            assert enumerate_even_symmetric_factors(w, max_letters, max_k) == [
                Move("SURG", factor)
                for factor in expected
                if phrase_witness(factor_phrase(w, *factor)) is not None
            ]

    def test_matches_filter_oracle_on_random_words(self):
        rng = random.Random(23)
        kept = 0
        for trial in range(1200):
            ground = ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(0, 7))
            max_letters, max_k = rng.randint(1, 6), rng.randint(1, 4)
            expected = even_symmetric_factors_by_filter(w, max_letters, max_k)
            assert enumerate_even_symmetric_factors(w, max_letters, max_k) == expected
            kept += len(expected)
        assert kept > 1000

    def test_matches_filter_oracle_on_search_states(self, two_free):
        """Every state one search reaches, under the caps the search uses."""
        caps = Caps(max_letters=4, max_k=3, bfs_nodes=60)
        checked = 0
        for text, proj in (("ABACBC", "aaa"), ("ABCABC", "aAb"), ("ABBCAC", "abA")):
            w = Nanoword.from_names(two_free, text, dict(zip("ABC", proj)))
            for seq, ks in bounded_bfs(w, None, caps).reached:
                state = Nanoword(two_free, seq, ks, tuple(f"L{i}" for i in range(len(ks))))
                assert enumerate_even_symmetric_factors(
                    state, caps.max_letters, caps.max_k
                ) == even_symmetric_factors_by_filter(state, caps.max_letters, caps.max_k)
                checked += 1
        assert checked > 300


class TestSiteOracle:
    """The site finders against the scans over every pair and triple of
    positions that they replaced."""

    @staticmethod
    def assert_sites_match(w):
        assert find_h2_sites(w) == h2_sites_by_scan(w)
        for inverse in (False, True):
            assert find_h3_sites(w, inverse) == h3_sites_by_scan(w, inverse)

    def test_random_words(self):
        rng = random.Random(24)
        for trial in range(1200):
            w = random_nanoword(rng, ALPHABETS[trial % 3], rng.randint(0, 7))
            self.assert_sites_match(w)

    def test_no_surgery_repeats_a_site(self):
        """H1 and H2 are the one- and two-letter surgeries: ``site_moves``
        lists each once, as the homotopy move, and keeps every other
        surgery factor in the generator's order."""
        rng = random.Random(24)
        dropped = 0
        for trial in range(1200):
            w = random_nanoword(rng, ALPHABETS[trial % 3], rng.randint(0, 7))
            moves = list(site_moves(w))
            sites = {tuple((s, s + 2) for s in m.data) for m in moves if m.kind in ("H1", "H2")}
            surgeries = [m.data[1] for m in moves if m.kind == "SURG"]
            factors = [m.data[1] for m in enumerate_even_symmetric_factors(w)]
            assert sites <= set(factors)
            assert surgeries == [segments for segments in factors if segments not in sites]
            dropped += len(sites)
        assert dropped > 500

    @pytest.mark.parametrize("caps", [Caps(max_letters=1), Caps(max_k=1)], ids=["letters-1", "k-1"])
    def test_second_move_under_starved_caps(self, caps):
        """Caps below two letters or two segments leave the generator no
        ``(ab | ba)`` surgery; the second move is found apart from it."""
        w = Nanoword.from_names(BENCHMARK_ALPHABETS[0], "ABBA", {"A": "a", "B": "x"})
        moves = list(site_moves(w, caps))
        assert [m.to_line() for m in moves if m.kind == "H2"] == ["H2@0,2"]
        assert Move("SURG", ((0, 1), ((0, 2), (2, 4)))) not in enumerate_even_symmetric_factors(
            w, caps.max_letters, caps.max_k
        )
        verdict = slice_status(w, caps)
        assert verdict.status == SLICE and verdict.witness.to_log() == "H2@0,2"

    def test_several_sites_and_repeated_projections(self, two_free, word_factory):
        cases = [
            ("ABACBCDEDFEF", "aaaaaa", (0, 2, 0)),
            ("ABACBCDEDFEF", "aaabbA", (0, 1, 0)),  # F breaks the second site
            ("BACACBEDFDFE", "aaabbb", (0, 0, 2)),
            ("ABACDBCD", "aaaa", (0, 1, 0)),
            ("ABCBDCAD", "aaaa", (0, 0, 1)),
            ("ABBADCCD", "aAaA", (2, 0, 0)),
            ("ABBACDDC", "aAbB", (2, 0, 0)),
        ]
        for text, proj, counts in cases:
            w = word_factory(two_free, text, **dict(zip("ABCDEF", proj)))
            self.assert_sites_match(w)
            found = (len(find_h2_sites(w)), len(find_h3_sites(w)), len(find_h3_sites(w, True)))
            assert found == counts, text


class TestMirrorRule:
    """``mirror_witness`` against the routes it replaced: a factor's phrase
    with ``Nanophrase.epsilon``, and the positional bridge computation.
    The counts were taken with those routes at the commit before it."""

    def test_factors_match_phrase_route(self):
        rng = random.Random(41)
        symmetric = 0
        for trial in range(150):
            ground = ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(1, 4))
            for glob, segments in enumerate_factors(w, 3, 3):
                witness = mirror_witness(w.ground, w.seq, w.proj, segments)
                phrase = factor_phrase(w, glob, segments)
                local = phrase_witness(phrase)
                if local is None:
                    assert witness is None
                    continue
                symmetric += 1
                assert witness == SymmetryWitness(
                    tuple((glob[a], glob[b]) for a, b in local.iota),
                    tuple((glob[a], e) for a, e in local.epsilon),
                )
                eps = dict(witness.epsilon)
                for i, g in enumerate(glob):
                    assert eps[g] == phrase.epsilon(i)
        assert symmetric == 668

    def test_bridges_match_positional_route(self):
        rng = random.Random(42)
        total = 0
        for trial in range(60):
            ground = ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(1, 4))
            for b in enumerate_bridges(w, 3, 4):
                total += 1
                witness = validate_bridge(w, *b.data)
                assert (witness.iota, witness.epsilon) == bridge_witness(w, *b.data)
        assert total == 1069


class TestBridges:
    def test_single_letter_one_arch(self, two_free, word_factory):
        w = word_factory(two_free, "ABCBCA", A="a", B="b", C="b")
        bridge = Move("BRIDGE", ((0,), ((0, 1), (5, 6)), (1, 0)))
        witness = validate_bridge(w, *bridge.data)
        assert witness is not None
        assert bridge.arches == 1
        assert dict(witness.epsilon)[0] == 0

    def test_adjacent_pair_bridge(self, two_free, word_factory):
        w = word_factory(two_free, "CABBAC", C="b", A="a", B="b")
        bridge = Move("BRIDGE", ((1, 2), ((1, 3), (3, 5)), (1, 0)))
        assert validate_bridge(w, *bridge.data) is not None
        assert seqs(bridge.apply(w)) == ("L1", "L1")

    def test_middle_palindrome_bridge(self, two_free, word_factory):
        w = word_factory(two_free, "ABCBCDAD", A="a", B="b", C="b", D="a")
        bridge = Move("BRIDGE", ((0, 1, 2), ((0, 1), (1, 5), (6, 7)), (2, 1, 0)))
        assert validate_bridge(w, *bridge.data) is not None
        assert bridge.arches == 1
        assert seqs(bridge.apply(w)) == ("L1", "L1")

    def test_double_arch_bridge(self, two_free, word_factory):
        w = word_factory(
            two_free, "ADEBCDCAEB", A="a", B="a", C="b", D="b", E="a"
        )
        letters = tuple(sorted(w.names.index(n) for n in "ABC"))
        bridge = Move("BRIDGE", (letters, ((0, 1), (3, 5), (6, 8), (9, 10)), (3, 2, 1, 0)))
        assert validate_bridge(w, *bridge.data) is not None
        assert bridge.arches == 2
        assert seqs(bridge.apply(w)) == ("L1", "L2", "L1", "L2")

    def test_identity_kappa_is_even_symmetric_factor(self):
        """The surgery factors are the identity bridges, in the same order."""
        rng = random.Random(11)
        for trial in range(100):
            w = random_nanoword(rng, SEARCH_ALPHABETS[trial % 4], rng.randint(1, 4))
            surgeries = [m.data for m in enumerate_even_symmetric_factors(w, 4, 3)]
            identity_bridges = [
                b.data[:2]
                for b in enumerate_bridges(w, 4, 3)
                if b.kappa == tuple(range(len(b.kappa)))
            ]
            assert surgeries == identity_bridges

    def test_enumeration_on_doubled_letter(self, two_free, word_factory):
        w = word_factory(two_free, "AA", A="a")
        bridges = enumerate_bridges(w, 2, 3)
        kinds = {(b.factor(w)[1], b.kappa, b.arches) for b in bridges}
        assert (((0, 2),), (0,), 0) in kinds  # whole factor, zero arches
        assert (((0, 1), (1, 2)), (1, 0), 1) in kinds  # split, one arch

    def test_empty_word_has_no_bridges(self, two_free):
        assert enumerate_bridges(Nanoword.empty(two_free), 4, 4) == []

    def test_enumerated_bridges_validate(self, two_free):
        rng = random.Random(12)
        for _ in range(10):
            w = random_nanoword(rng, two_free, rng.randint(1, 3))
            for b in enumerate_bridges(w, 3, 4):
                assert b.kind == "BRIDGE"
                letters, segments = b.factor(w)
                witness = validate_bridge(w, letters, segments, b.kappa)
                assert witness == mirror_witness(w.ground, w.seq, w.proj, segments, b.kappa)
                assert witness is not None
                assert b.apply(w) == w.delete_letters(letters)[0]


class TestSearch:
    def test_symmetric_word_is_slice(self, two_free, word_factory):
        w = word_factory(two_free, "ABBA", A="a", B="b")
        out = bounded_bfs(w, Nanoword.empty(two_free))
        assert out.equivalent
        assert len(out.metamorphosis.moves) == 1

    def test_tau_linked_pair_is_slice(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="A")
        out = bounded_bfs(w, Nanoword.empty(two_free))
        assert out.equivalent
        assert out.metamorphosis.replay(w).length == 0

    def test_distinct_orbits_unknown_within_caps(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        caps = Caps(bfs_length=8, bfs_nodes=300)
        out = bounded_bfs(w, Nanoword.empty(two_free), caps)
        assert not out.equivalent
        assert not w.gamma().is_identity()  # the obstruction certifying it

    def test_reached_set_decides_targeted_search(self, two_free):
        """A target is found exactly when an untargeted search with the
        same caps discovers its canonical key."""
        rng = random.Random(22)
        caps = Caps(bfs_nodes=40)
        for _ in range(12):
            w = random_nanoword(rng, two_free, rng.randint(1, 3))
            v = random_nanoword(rng, two_free, rng.randint(0, 3))
            reached = bounded_bfs(w, None, caps).reached
            assert w.canonical_key() in reached
            targeted = bounded_bfs(w, v, caps)
            assert targeted.equivalent == (v.canonical_key() in reached)

    def test_two_surgery_witness_replays(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABACDCDB", A="a", B="a", C="c", D="c")
        out = bounded_bfs(w, Nanoword.empty(ground))
        assert out.equivalent
        assert [m.kind for m in out.metamorphosis.moves] == ["SURG", "SURG"]
        assert out.metamorphosis.replay(w).length == 0

    def test_log_round_trip(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABACDCDB", A="a", B="a", C="c", D="c")
        meta = bounded_bfs(w, Nanoword.empty(ground)).metamorphosis
        recovered = Metamorphosis.from_log(meta.to_log())
        assert recovered == meta
        assert recovered.replay(w).length == 0

    def test_position_count_checked(self):
        for line in ("H3@0,2", "H1@0,1", "H2@4", "H3@0,1,2,3", "H4@1"):
            with pytest.raises(WordError, match="cannot parse move line"):
                Move.from_line(line)

    def test_bridge_move_log_round_trip(self, two_free, word_factory):
        w = word_factory(two_free, "ABCBCA", A="a", B="b", C="b")
        move = Move("BRIDGE", ((0,), ((0, 1), (5, 6)), (1, 0)))
        assert validate_bridge(w, *move.data) is not None
        assert move.arches == 1
        line = move.to_line()
        assert "kappa=1,0" in line and "arches=1" in line
        recovered = Move.from_line(line)
        assert recovered == move
        assert recovered.apply(w).canonical_form().letter_seq() == (
            "L1", "L2", "L1", "L2",
        )

    def test_insertion_log_round_trip(self, two_free, word_factory):
        w = word_factory(two_free, "AA", A="a")
        move = Move("INS", (((0, 1), (1, 0)), ("a", "A"), (0, 2)), inverse=True)
        meta = Metamorphosis((move,))
        recovered = Metamorphosis.from_log(meta.to_log())
        assert recovered == meta
        assert recovered.replay(w).length == 6

    def test_inverse_replay_returns_start(self, two_free):
        rng = random.Random(13)
        checked = 0
        kinds = set()
        for _ in range(40):
            w = random_nanoword(rng, two_free, rng.randint(1, 4))
            out = bounded_bfs(
                w, Nanoword.empty(two_free), Caps(bfs_nodes=400, bfs_length=10)
            )
            if not out.equivalent or not out.metamorphosis.moves:
                continue
            end = out.metamorphosis.replay(w)
            inverse = out.metamorphosis.inverted(w)
            back = inverse.replay(end)
            assert back.is_isomorphic(w)
            # the inverse is a witness from the end back to w; inverting
            # it turns its insertions back into surgeries
            assert inverse.inverted(end).replay(w).is_isomorphic(end)
            for witness in (out.metamorphosis, inverse):
                checked += 1
                kinds.update(move.kind for move in witness.moves)
        assert checked >= 6
        assert "INS" in kinds

    def test_moves_preserve_word_invariant(self, two_free):
        rng = random.Random(14)
        from nanocob.moves import neighbors

        for _ in range(15):
            w = random_nanoword(rng, two_free, rng.randint(1, 3)).canonical_form()
            for move, _ in neighbors(w, Caps(bfs_length=w.length + 2)):
                result = move.apply(w)
                assert result.length == 2 * result.num_letters  # constructor ran


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 4), st.integers(0, 10 ** 6))
def test_move_lines_round_trip(alphabet, letters, seed):
    """Every move the search yields, and every bridge move with its arches,
    reads back from its log line; so does the log of all of them."""
    w = random_nanoword(random.Random(seed), ALPHABETS[alphabet], letters)
    w = w.canonical_form()
    caps = Caps(max_letters=3, max_k=3)
    moves = [m for m, _ in neighbors(w, caps)] + [Move("SHIFT", ())]
    moves += enumerate_bridges(w, caps.max_letters, caps.max_k)
    for move in moves:
        assert Move.from_line(move.to_line()) == move
    meta = Metamorphosis(tuple(moves))
    assert Metamorphosis.from_log(meta.to_log()) == meta


# The alphabets of the check-slice benchmark: one free orbit, two free
# orbits, one free orbit plus a fixed point.
BENCHMARK_ALPHABETS = (
    InvolutiveAlphabet.fixed_point_free(("a",), ("x",)),
    InvolutiveAlphabet.fixed_point_free(("a", "b"), ("x", "y")),
    InvolutiveAlphabet.build(("a", "x", "c"), {"a": "x", "x": "a", "c": "c"}),
)


# The alphabets the benchmark and the roadmap search over: one free orbit,
# two free orbits, one free orbit plus a fixed point, one fixed point.
SEARCH_ALPHABETS = BENCHMARK_ALPHABETS + (InvolutiveAlphabet.build(("a",), {"a": "a"}),)


class TestBridgeGeneration:
    """Generating the bridges must match the route it replaces: every
    factor within the caps with every segment involution, kept when
    ``validate_bridge`` accepts the pair, in the same order."""

    @pytest.mark.parametrize("ground", SEARCH_ALPHABETS, ids=["ax", "ax-by", "ax-cc", "aa"])
    def test_matches_filter_oracle_on_random_words(self, ground):
        rng = random.Random(19)
        by_arches = [0, 0, 0]
        for max_letters in range(1, 7):
            for max_k in range(1, 5):
                for _ in range(10):
                    w = random_nanoword(rng, ground, rng.randint(0, 7))
                    expected = bridges_by_filter(w, max_letters, max_k)
                    assert enumerate_bridges(w, max_letters, max_k) == expected
                    for b in expected:
                        by_arches[b.arches] += 1
        assert min(by_arches) > 0 and sum(by_arches) > 1000

    def test_promised_segments_stay_disjoint(self):
        """Two pairs around doubled letters, where a pair's second segment
        could overlap one already promised when the segment cap is reached."""
        ground = SEARCH_ALPHABETS[3]
        w = Nanoword.from_names(ground, "ABBCCDDA", dict.fromkeys("ABCD", "a"))
        for max_letters in (4, 5):
            assert enumerate_bridges(w, max_letters, 4) == bridges_by_filter(w, max_letters, 4)

    def test_matches_filter_oracle_on_search_states(self):
        """Every state three short searches reach, under the caps they use."""
        starts = (("ABACBC", "aaa", 1), ("ABCACB", "axc", 2), ("ABCBDCAD", "aaaa", 3))
        checked = 0
        for text, proj, alphabet in starts:
            ground = SEARCH_ALPHABETS[alphabet]
            w = Nanoword.from_names(ground, text, dict(zip("ABCD", proj)))
            caps = Caps(max_letters=4, max_k=3, bfs_length=w.length + 2, bfs_nodes=30)
            for seq, ks in bounded_bfs(w, None, caps).reached:
                state = Nanoword(ground, seq, ks, tuple(f"L{i}" for i in range(len(ks))))
                assert enumerate_bridges(
                    state, caps.max_letters, caps.max_k
                ) == bridges_by_filter(state, caps.max_letters, caps.max_k)
                checked += 1
        assert checked > 100


def _extra_templates(ground):
    """Two even symmetric phrases past the built-in ones: ``ABBA`` in one
    segment and ``AB | CC | BA`` in three."""
    a = ground.symbols[0]
    c = ground.symbols[-1]
    return (
        (((0, 1, 1, 0),), (a, c)),
        (((0, 1), (2, 2), (1, 0)), (a, ground.tau(a), c)),
    )


@pytest.mark.parametrize("extra", [False, True], ids=["builtin", "extra-templates"])
@pytest.mark.parametrize("ground", SEARCH_ALPHABETS, ids=["ax", "ax-by", "ax-cc", "aa"])
def test_neighbor_keys_match_applied_moves(ground, extra):
    """Every child key ``neighbors`` yields, insertions built without a
    word included, is the canonical key of the word its move builds."""
    rng = random.Random(17)
    templates = _extra_templates(ground) if extra else ()
    kinds = set()
    for _ in range(12):
        w = random_nanoword(rng, ground, rng.randint(0, 3)).canonical_form()
        caps = Caps(bfs_length=w.length + 6)
        for move, key in neighbors(w, caps, templates):
            assert key == move.apply(w).canonical_key(), move.to_line()
            kinds.add(move.kind)
    assert "INS" in kinds


def test_foreign_template_rejected_once_per_search():
    """A template over a symbol outside the word's alphabet is refused
    before the search starts, also when no insertion would fit."""
    one_orbit = BENCHMARK_ALPHABETS[0]
    w = Nanoword.from_names(one_orbit, "ABAB", {"A": "a", "B": "a"})
    for caps in (DEFAULT_CAPS, Caps(bfs_length=4)):
        with pytest.raises(AlphabetError):
            bounded_bfs(w, None, caps, ((((0, 0),), ("b",)),))
    with pytest.raises(WordError):
        bounded_bfs(w, None, DEFAULT_CAPS, ((((0, 1),), ("a", "a")),))


def test_asymmetric_template_rejected():
    """A template must be an even symmetric phrase: ``ABAB`` is not, and
    inserting it would connect the empty word to a word that is not
    slice."""
    two_free = BENCHMARK_ALPHABETS[1]
    empty = Nanoword.empty(two_free)
    abab = Nanoword.from_names(two_free, "ABAB", {"A": "a", "B": "b"})
    template = (((0, 1, 0, 1),), ("a", "b"))
    with pytest.raises(WordError, match="not a bridge"):
        bounded_bfs(empty, abab, extra_templates=[template])
    abba = Nanoword.from_names(two_free, "ABBA", {"A": "a", "B": "x"})
    for w in (empty, abba):
        with pytest.raises(WordError, match="not a bridge"):
            slice_status(w, extra_templates=[template])


class TestFactorMoveRule:
    """Insertions are checked, inverted and logged as the bridges they
    insert, so a replayed log never makes a move its inverse could not."""

    def test_forged_insertion_rejected(self):
        two_free = BENCHMARK_ALPHABETS[1]
        w = Nanoword.from_names(two_free, "ABAB", {"A": "a", "B": "b"})
        forged = Metamorphosis.from_log(
            "INV INS words=0.1.0.1 proj=b,a at=4\nSURG letters=0,1,2,3 segs=0-8"
        )
        with pytest.raises(WordError, match="inserted phrase is not a bridge"):
            forged.replay(w)

    def test_insertion_checked_with_its_kappa(self):
        one_orbit = BENCHMARK_ALPHABETS[0]
        w = Nanoword.from_names(one_orbit, "AA", {"A": "x"})
        arch = Move.from_line("INV INS words=0|0 proj=a at=0,2 kappa=1,0 arches=1")
        assert arch.kappa == (1, 0) and arch.arches == 1
        assert arch.apply(w).letter_seq() == ("N2", "A", "A", "N2")
        # each one-letter segment onto itself: odd, so no bridge
        fixed = Move.from_line("INV INS words=0|0 proj=a at=0,2 kappa=0,1")
        with pytest.raises(WordError, match="not a bridge with its kappa"):
            fixed.apply(w)
        # the same phrase without a kappa is checked as a surgery undone
        with pytest.raises(WordError, match="not a bridge with its kappa"):
            Move.from_line("INV INS words=0|0 proj=a at=0,2").apply(w)

    @pytest.mark.parametrize("ground", BENCHMARK_ALPHABETS, ids=["ax", "ax-by", "ax-cc"])
    def test_bridges_invert_twice_and_keep_arches(self, ground):
        rng = random.Random(5)
        by_arches = [0, 0, 0]
        for _ in range(40):
            w = random_nanoword(rng, ground, rng.randint(1, 4)).canonical_form()
            for b in enumerate_bridges(w, 4, 4):
                forward = Metamorphosis((b,))
                end = forward.replay(w)
                inverse = forward.inverted(w)
                assert inverse.replay(end).is_isomorphic(w)
                again = inverse.inverted(end)
                assert again.replay(w).is_isomorphic(end)
                for meta in (forward, inverse, again):
                    assert Metamorphosis.from_log(meta.to_log()).total_arches == b.arches
                by_arches[b.arches] += 1
        assert min(by_arches[:2]) > 0 and sum(by_arches) > 100


class TestSearchOracle:
    """The key-only search against the loop it replaced, which stored a
    canonical word for every state it discovered, and the insertions-last
    order against the FIFO order it replaced."""

    @pytest.mark.parametrize(
        "caps, max_letters",
        [(DEFAULT_CAPS, 2), (Caps(bfs_nodes=60), 4), (Caps(bfs_nodes=5, bfs_length=4), 6)],
        ids=["default", "nodes-60", "starved"],
    )
    def test_matches_word_storing_search(self, caps, max_letters):
        rng = random.Random(31)
        found = 0
        for trial in range(18):
            ground = BENCHMARK_ALPHABETS[trial % 3]
            w = random_nanoword(rng, ground, rng.randint(0, max_letters))
            for v in (Nanoword.empty(ground), None):
                ours = bounded_bfs(w, v, caps)
                theirs = bfs_storing_words(w, v, caps)
                assert ours.equivalent == theirs.equivalent
                assert ours.explored == theirs.explored
                assert set(ours.reached) == set(theirs.reached)
                assert ours.exhausted == theirs.exhausted
                if ours.equivalent:
                    found += 1
                    assert ours.metamorphosis.to_log() == theirs.metamorphosis.to_log()
        assert found >= 3

    def test_insertions_last_against_fifo(self):
        """Where the FIFO search empties its queue, both orders reach the
        same states; a FIFO witness without insertions is matched with no
        more moves and no more expanded states."""
        rng = random.Random(41)
        exhaustive = matched = 0
        for trial in range(200):
            ground = SEARCH_ALPHABETS[trial % 4]
            w = random_nanoword(rng, ground, rng.randint(0, 5))
            caps = Caps(
                max_letters=rng.randint(2, 6),
                max_k=rng.randint(2, 4),
                bfs_length=w.length + rng.choice((0, 2, 4)),
                bfs_nodes=rng.randint(5, 80),
            )
            other = random_nanoword(rng, ground, rng.randint(0, 3))
            for v in (Nanoword.empty(ground), None, other):
                ours, fifo = bounded_bfs(w, v, caps), bfs_fifo(w, v, caps)
                assert fifo.exhausted or not ours.exhausted
                if fifo.exhausted:
                    exhaustive += 1
                    assert set(ours.reached) == set(fifo.reached)
                    assert ours.equivalent == fifo.equivalent
                witness = fifo.metamorphosis
                if witness is not None and all(m.kind != "INS" for m in witness.moves):
                    matched += 1
                    assert ours.equivalent
                    assert len(ours.metamorphosis.moves) <= len(witness.moves)
                    assert ours.explored <= fifo.explored
        assert exhaustive > 100 and matched > 200


class TestSearchSymmetry:
    """``key_images`` maps: ``tau`` on every projection, reversal, and
    both.  On seeded words, a search from an image ends as the search from
    the word does, exhausted or at the node cap, and when both exhaust, the
    image reaches exactly the images of what the word reaches;
    ``classify_words`` reuses a merge search on this."""

    MAPS = {1: "tau", 2: "reversal", 3: "reversal and tau"}

    def test_images_search_alike(self):
        exhausted = dict.fromkeys(self.MAPS, 0)
        # fewer and shorter words where the caps let searches grow large
        for nodes, words in ((50, 24), (300, 8), (2000, 4)):
            for slack in (0, 2, 4):
                rng = random.Random(100 * nodes + slack)
                top = (4 if nodes < 2000 else 3) - slack // 2
                for trial in range(words):
                    ground = _SUITE_ALPHABETS[trial % 3]
                    w = random_nanoword(rng, ground, rng.randint(1, top))
                    caps = Caps(bfs_length=w.length + slack, bfs_nodes=nodes)
                    ours = bounded_bfs(w, None, caps)
                    images = key_images(ground, w.canonical_key())
                    for t, name in self.MAPS.items():
                        if images[t] == images[0]:
                            continue
                        theirs = bounded_bfs(Nanoword.from_key(ground, images[t]), None, caps)
                        assert theirs.exhausted == ours.exhausted, (name, str(w), caps)
                        if ours.exhausted:
                            exhausted[t] += 1
                            mapped = {key_images(ground, key)[t] for key in ours.reached}
                            assert set(theirs.reached) == mapped, (name, str(w), caps)
        assert min(exhausted.values()) >= 15, exhausted

    def test_images_are_involutions(self):
        rng = random.Random(5)
        for trial in range(60):
            ground = _SUITE_ALPHABETS[trial % 3]
            key = random_nanoword(rng, ground, rng.randint(0, 5)).canonical_key()
            images = key_images(ground, key)
            assert images[0] == key
            for t, image in enumerate(images):
                assert Nanoword.from_key(ground, image).canonical_key() == image
                assert key_images(ground, image)[t] == key


class TestShiftRepertoire:
    def test_shift_connects_rotations(self, two_free, word_factory):
        """A one-line SHIFT log connects a word with its rotation; the
        search takes no shifts, so it does not."""
        w = word_factory(two_free, "ABAB", A="a", B="b")
        target = word_factory(two_free, "XYXY", X="b", Y="A")  # the shift image
        out = bounded_bfs(w, target, Caps(bfs_nodes=200, bfs_length=6))
        assert not out.equivalent  # distinct cobordism classes
        shift = Metamorphosis.from_log("SHIFT")
        assert shift.replay(w).is_isomorphic(target)


class TestInsertValidation:
    def test_descending_positions_rejected(self, two_free, word_factory):
        from nanocob.moves import insert_phrase

        w = word_factory(two_free, "AA", A="a")
        with pytest.raises(WordError):
            insert_phrase(w, ((0, 1), (1, 0)), ("a", "A"), (2, 0))

    def test_out_of_range_rejected(self, two_free, word_factory):
        from nanocob.moves import insert_phrase

        w = word_factory(two_free, "AA", A="a")
        with pytest.raises(WordError):
            insert_phrase(w, ((0, 0),), ("a",), (5,))

    def test_insert_then_delete_round_trip(self, two_free, word_factory):
        from nanocob.moves import insert_phrase

        w = word_factory(two_free, "ABAB", A="a", B="b")
        grown = insert_phrase(w, ((0, 1), (1, 0)), ("a", "A"), (1, 3))
        assert grown.length == 8
        back, _ = grown.delete_letters([2, 3])
        assert back.canonical_key() == w.canonical_key()


class TestLengthNormBounds:
    def test_linked_pair_distinct_orbits(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        assert length_norm_bounds(w, Caps(bfs_nodes=300, bfs_length=6)) == (2, 2)

    def test_six_letter_word(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        lower, upper = length_norm_bounds(w, Caps(bfs_nodes=200, bfs_length=8))
        assert lower == upper == 3

    def test_symmetric_is_zero(self, two_free, word_factory):
        w = word_factory(two_free, "ABBA", A="a", B="b")
        assert length_norm_bounds(w) == (0, 0)

    @pytest.mark.parametrize("forged", ["SHIFT", "H1@0"], ids=["wrong-end", "no-site"])
    def test_forged_witness_is_not_norm_zero(self, two_free, word_factory, monkeypatch, forged):
        """Norm 0 rests on a witness to the empty word, so one that ends
        elsewhere, or does not apply, must be caught before it is reported."""
        outcome = SearchOutcome(Metamorphosis((Move.from_line(forged),)), 1, frozenset())
        monkeypatch.setattr(explorer, "bounded_bfs", lambda *args: outcome)
        w = word_factory(two_free, "ABAB", A="a", B="b")
        with pytest.raises(AssertionError, match="slice witness"):
            length_norm_bounds(w)

    def test_lower_never_exceeds_upper(self, two_free):
        rng = random.Random(15)
        caps = Caps(bfs_nodes=250, bfs_length=8)
        for _ in range(12):
            w = random_nanoword(rng, two_free, rng.randint(1, 3))
            lower, upper = length_norm_bounds(w, caps)
            assert 0 <= lower <= upper <= w.length // 2

    def test_obstructed_words_never_reach_empty(self, two_free):
        """Soundness: a word with a nonzero invariant must not be reduced
        to the empty word by any replayable move sequence the search can
        produce."""
        rng = random.Random(16)
        caps = Caps(bfs_nodes=300, bfs_length=8)
        obstructed = 0
        for _ in range(30):
            w = random_nanoword(rng, two_free, rng.randint(2, 3))
            if w.gamma().is_identity():
                continue
            obstructed += 1
            out = bounded_bfs(w, Nanoword.empty(two_free), caps)
            assert not out.equivalent
        assert obstructed >= 5

import random

import pytest
from hypothesis import given, settings, strategies as st

from nanocob.algebra import AlphabetError, InvolutiveAlphabet
from nanocob.words import (
    Nanophrase,
    Nanoword,
    WordError,
    key_of,
)

from _gamma_oracle import gamma_by_products
from _phrase_route import phrase_witness


def random_word(rng, ground, letters):
    positions = list(range(2 * letters))
    rng.shuffle(positions)
    seq = [0] * (2 * letters)
    chords = sorted(
        tuple(sorted(positions[2 * i : 2 * i + 2])) for i in range(letters)
    )
    for cid, (i, j) in enumerate(chords):
        seq[i] = cid
        seq[j] = cid
    proj = tuple(rng.choice(ground.symbols) for _ in range(letters))
    names = tuple(f"L{i+1}" for i in range(letters))
    return Nanoword(ground, tuple(seq), proj, names)


class TestConstruction:
    def test_twice_occurrence_enforced(self, two_free):
        with pytest.raises(WordError):
            Nanoword(two_free, (0, 1, 0), ("a", "b"), ("A", "B"))

    def test_missing_projection(self, two_free):
        with pytest.raises(WordError):
            Nanoword.from_names(two_free, "ABAB", {"A": "a"})

    def test_stray_projection_named(self, two_free):
        with pytest.raises(WordError, match="not in the word: Z, Y$"):
            Nanoword.from_names(two_free, "ABAB", {"A": "a", "B": "b", "Z": "a", "Y": "b"})

    def test_phrase_with_duplicate_names_rejected(self, two_free):
        with pytest.raises(WordError, match="duplicate letter names"):
            Nanophrase(two_free, ((0, 1), (1, 0)), ("a", "A"), ("X", "X"))

    def test_from_string(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        assert w.length == 4 and w.num_letters == 2

    def test_partner_is_the_other_entry(self, two_free):
        rng = random.Random(3)
        for _ in range(20):
            w = random_word(rng, two_free, rng.randint(0, 5))
            fresh = Nanoword(w.ground, w.seq, w.proj, w.names)
            for letter in range(w.num_letters):
                i, j = w.occurrences(letter)
                assert (w.partner[i], w.partner[j]) == (j, i)
            # the cached table is no field: equality and hash ignore it
            assert w == fresh and hash(w) == hash(fresh)
            assert w.partner is w.partner


class TestCanonicalForm:
    def test_relabeling(self, two_free, word_factory):
        w = word_factory(two_free, "XYXY", X="a", Y="b")
        c = w.canonical_form()
        assert c.names == ("L1", "L2")
        assert c.letter_seq() == ("L1", "L2", "L1", "L2")
        assert c.proj == ("a", "b")

    def test_idempotent(self, two_free):
        rng = random.Random(1)
        for _ in range(20):
            w = random_word(rng, two_free, rng.randint(0, 5))
            once = w.canonical_form()
            assert once.canonical_form() == once

    def test_isomorphism_detected_by_exhaustive_bijections(self, two_free, word_factory):
        w1 = word_factory(two_free, "BAAB", A="a", B="a")
        w2 = word_factory(two_free, "ABBA", A="a", B="a")
        # oracle: try both bijections on two letters
        seqs = []
        for mapping in ({"A": "A", "B": "B"}, {"A": "B", "B": "A"}):
            seqs.append(tuple(mapping[x] for x in "BAAB"))
        assert tuple("ABBA") in seqs
        assert w1.canonical_key() == w2.canonical_key()

    def test_canonical_equality_matches_bijection_search(self, two_free):
        """Oracle: equality of canonical keys must coincide with the
        existence of a projection-preserving letter bijection."""
        import itertools

        rng = random.Random(8)

        def isomorphic_by_search(w1, w2):
            if w1.num_letters != w2.num_letters or w1.length != w2.length:
                return False
            for perm in itertools.permutations(range(w2.num_letters)):
                if all(
                    w1.proj[i] == w2.proj[perm[i]] for i in range(w1.num_letters)
                ) and all(
                    perm[a] == b for a, b in zip(w1.seq, w2.seq)
                ):
                    return True
            return False

        words = [random_word(rng, two_free, rng.randint(1, 3)) for _ in range(14)]
        # add guaranteed-isomorphic partners by shuffling letter ids
        for w in words[:4]:
            ids = list(range(w.num_letters))
            rng.shuffle(ids)
            words.append(
                Nanoword(
                    two_free,
                    tuple(ids[x] for x in w.seq),
                    tuple(w.proj[ids.index(i)] for i in range(w.num_letters)),
                    tuple(w.names[ids.index(i)] for i in range(w.num_letters)),
                )
            )
        for w1 in words:
            for w2 in words:
                assert (w1.canonical_key() == w2.canonical_key()) == isomorphic_by_search(
                    w1, w2
                )

    def test_concatenation_depends_only_on_canonical_forms(self, two_free):
        rng = random.Random(2)
        for _ in range(10):
            w1 = random_word(rng, two_free, rng.randint(1, 3))
            w2 = random_word(rng, two_free, rng.randint(1, 3))
            direct = w1.concatenate(w2).canonical_key()
            via = w1.canonical_form().concatenate(w2.canonical_form()).canonical_key()
            assert direct == via


class TestOppositeConcatenate:
    def test_opposite_reverses(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        assert w.opposite().letter_seq() == ("B", "A", "B", "A")

    def test_opposite_involution(self, two_free):
        rng = random.Random(3)
        for _ in range(10):
            w = random_word(rng, two_free, rng.randint(0, 4))
            assert w.opposite().opposite() == w

    def test_opposite_longer(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        assert w.opposite().letter_seq() == tuple("CABCBA")

    def test_concatenate_simple(self, two_free, word_factory):
        w1 = word_factory(two_free, "AA", A="a")
        w2 = word_factory(two_free, "BB", B="b")
        assert w1.concatenate(w2).letter_seq() == ("A", "A", "B", "B")

    def test_concatenate_unit(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        assert w.concatenate(Nanoword.empty(two_free)).is_isomorphic(w)

    def test_concatenate_relabels_collisions(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        both = w.concatenate(w)
        assert both.canonical_form().letter_seq() == (
            "L1", "L2", "L1", "L2", "L3", "L4", "L3", "L4",
        )

    def test_length_additive(self, two_free):
        rng = random.Random(4)
        w1 = random_word(rng, two_free, 2)
        w2 = random_word(rng, two_free, 3)
        assert w1.concatenate(w2).length == w1.length + w2.length

    def test_ground_mismatch(self, two_free, three_free, word_factory):
        w1 = word_factory(two_free, "AA", A="a")
        w2 = word_factory(three_free, "BB", B="b")
        with pytest.raises(AlphabetError):
            w1.concatenate(w2)


class TestSymmetry:
    def test_abba_always_symmetric(self, two_free, word_factory):
        for pa in ("a", "A", "b"):
            for pb in ("a", "b", "B"):
                w = word_factory(two_free, "ABBA", A=pa, B=pb)
                witness = w.to_phrase().symmetry_witness()
                assert witness is not None
                iota = dict(witness.iota)
                assert iota[0] == 0 and iota[1] == 1

    def test_abab_symmetric_iff_equal_projection(self, two_free, word_factory):
        same = word_factory(two_free, "ABAB", A="a", B="a")
        diff = word_factory(two_free, "ABAB", A="a", B="b")
        assert same.to_phrase().symmetry_witness() is not None
        assert diff.to_phrase().symmetry_witness() is None

    def test_two_word_phrase_symmetric_iff_tau_related(self, two_free):
        def phrase(pa, pb):
            return Nanophrase(two_free, ((0, 1), (1, 0)), (pa, pb), ("A", "B"))

        assert phrase("a", "A").symmetry_witness() is not None
        assert phrase("a", "b").symmetry_witness() is None

    def test_even(self, two_free):
        even = Nanophrase(two_free, ((0, 1), (1, 0)), ("a", "b"), ("A", "B"))
        odd = Nanophrase(two_free, ((0,), (0,)), ("a",), ("A",))
        assert even.is_even()
        assert not odd.is_even()
        assert random_word(random.Random(0), two_free, 3).to_phrase().is_even()

    def test_epsilon(self, two_free):
        split = Nanophrase(two_free, ((0, 1), (1, 0)), ("a", "b"), ("A", "B"))
        assert split.epsilon(0) == 1
        local = Nanophrase(two_free, ((0, 0), (1, 1)), ("a", "b"), ("A", "B"))
        assert local.epsilon(0) == 0
        single = Nanophrase(two_free, ((0,), (0,)), ("a",), ("A",))
        assert single.epsilon(0) == 1

    def test_witness_structure_invariants(self, mixed):
        """Any returned witness must be an involution whose twist values
        are mirror-invariant and consistent with the projections."""
        rng = random.Random(9)
        found = 0
        for _ in range(400):
            flat = random_word(rng, mixed, rng.randint(1, 3))
            cut = rng.randint(0, flat.length)
            phrase = Nanophrase(
                mixed, (flat.seq[:cut], flat.seq[cut:]), flat.proj, flat.names
            )
            witness = phrase.symmetry_witness()
            if witness is None:
                continue
            found += 1
            iota = dict(witness.iota)
            eps = dict(witness.epsilon)
            for a, b in iota.items():
                assert iota[b] == a
                assert eps[a] == eps[b]
                expected = phrase.proj[a]
                if eps[a]:
                    expected = mixed.tau(expected)
                assert phrase.proj[b] == expected
        assert found > 0

    def test_matches_phrase_route(self, two_free, mixed):
        """The mirror rule on phrases agrees with the phrase route it
        replaced; the count was taken with that route at the commit
        before it."""
        two_fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        grounds = (two_free, two_fixed, mixed)
        rng = random.Random(43)
        symmetric = 0
        for trial in range(900):
            ground = grounds[trial % 3]
            flat = random_word(rng, ground, rng.randint(1, 3))
            cut = rng.randint(0, flat.length)
            phrase = Nanophrase(
                ground, (flat.seq[:cut], flat.seq[cut:]), flat.proj, flat.names
            )
            witness = phrase.symmetry_witness()
            assert witness == phrase_witness(phrase)
            if witness is None:
                continue
            symmetric += 1
            eps = dict(witness.epsilon)
            for x in range(flat.num_letters):
                assert eps[x] == phrase.epsilon(x)
        assert symmetric == 413

    def test_symmetric_implies_even_when_fixed_point_free(self, two_free):
        rng = random.Random(5)
        seen_symmetric = 0
        for _ in range(300):
            letters = rng.randint(1, 3)
            words = []
            flat = random_word(rng, two_free, letters)
            cut = rng.randint(0, flat.length)
            phrase = Nanophrase(
                two_free,
                (flat.seq[:cut], flat.seq[cut:]),
                flat.proj,
                flat.names,
            )
            if phrase.symmetry_witness() is not None:
                seen_symmetric += 1
                assert phrase.is_even()
        assert seen_symmetric > 0


class TestShift:
    def test_shift_of_linked_pair(self, two_free, word_factory):
        """Shifting the linked pair on (a, b) gives the linked pair on
        (b, tau(a))."""
        w = word_factory(two_free, "ABAB", A="a", B="b")
        shifted = w.circular_shift()
        target = word_factory(two_free, "XYXY", X="b", Y="A")
        assert shifted.is_isomorphic(target)

    def test_shift_doubled_letter(self, two_free, word_factory):
        w = word_factory(two_free, "AA", A="a")
        shifted = w.circular_shift()
        assert shifted.proj == ("A",)
        assert shifted.canonical_form().letter_seq() == ("L1", "L1")

    def test_full_rotation_returns_isomorphic(self, two_free):
        rng = random.Random(6)
        for _ in range(15):
            w = random_word(rng, two_free, rng.randint(1, 5))
            rotated = w
            for _ in range(w.length):
                rotated = rotated.circular_shift()
            assert rotated.is_isomorphic(w)

    def test_empty_shift_rejected(self, two_free):
        with pytest.raises(WordError):
            Nanoword.empty(two_free).circular_shift()


class TestPushPull:
    def test_identity_map(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        ident = {s: s for s in two_free.symbols}
        assert w.push_forward(ident, two_free) == w

    def test_push_to_signs(self, two_free, pm, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="B")
        f = {"a": "+", "A": "-", "b": "+", "B": "-"}
        out = w.push_forward(f, pm)
        assert out.proj == ("+", "-")
        assert out.ground == pm

    def test_non_equivariant_rejected(self, two_free, pm, word_factory):
        w = word_factory(two_free, "AA", A="a")
        f = {"a": "+", "A": "+", "b": "+", "B": "-"}
        with pytest.raises(AlphabetError):
            w.push_forward(f, pm)

    def test_pull_back_full_and_empty(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        assert w.pull_back(two_free.symbols).seq == w.seq
        assert w.pull_back(()).length == 0

    def test_pull_back_orbit(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABACDCDB", A="a", B="a", C="c", D="c")
        out = w.pull_back(("a", "A"))
        assert out.canonical_form().letter_seq() == ("L1", "L2", "L1", "L2")

    def test_pull_back_requires_invariant_subset(self, two_free, word_factory):
        w = word_factory(two_free, "AA", A="a")
        with pytest.raises(AlphabetError):
            w.pull_back(("a",))  # partner A missing

    def test_pull_after_push_along_inclusion(self, two_free):
        sub = two_free.restrict(("a", "A"))
        big_inclusion = {"a": "a", "A": "A"}
        rng = random.Random(7)
        for _ in range(10):
            w = random_word(rng, sub, rng.randint(0, 3))
            pushed = w.push_forward(big_inclusion, two_free)
            back = pushed.pull_back(("a", "A"))
            assert back.canonical_key() == w.canonical_key()
            assert back.ground == sub


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gamma_lands_in_commutator(data):
    """The free-product value of any word abelianizes to zero."""
    ground = InvolutiveAlphabet.build(
        ("a", "A", "c"), {"a": "A", "A": "a", "c": "c"}
    )
    letters = data.draw(st.integers(0, 4))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    w = random_word(rng, ground, letters)
    assert w.gamma().abelianized().is_zero()


def test_gamma_matches_product_route(two_free, mixed):
    """Gamma reduced in one pass equals the entry-by-entry product."""
    fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
    rng = random.Random(25)
    for ground in (two_free, mixed, fixed):
        for _ in range(300):
            w = random_word(rng, ground, rng.randint(0, 8))
            assert w.gamma().syllables == gamma_by_products(w)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 10 ** 6))
def test_key_of_is_the_canonical_key(letters, seed):
    """``key_of`` a word's tables is its canonical key, also after its
    letter ids are permuted, and ``from_key`` builds a word with that key."""
    ground = InvolutiveAlphabet.build(
        ("a", "A", "c"), {"a": "A", "A": "a", "c": "c"}
    )
    rng = random.Random(seed)
    w = random_word(rng, ground, letters)
    key = w.canonical_key()
    assert key_of(w.seq, w.proj) == key
    ids = list(range(letters))
    rng.shuffle(ids)
    proj = [""] * letters
    for old, new in enumerate(ids):
        proj[new] = w.proj[old]
    assert key_of([ids[x] for x in w.seq], proj) == key
    rebuilt = Nanoword.from_key(ground, key)
    assert rebuilt.canonical_key() == key
    assert rebuilt == rebuilt.canonical_form()
    assert rebuilt.is_isomorphic(w)

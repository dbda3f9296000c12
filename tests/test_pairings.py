import hashlib
import random

import pytest

from nanocob.algebra import AlphabetError, InvolutiveAlphabet, PhiSpec, PiElement
from nanocob.explorer import (
    _SUITE_ALPHABETS,
    random_nanoword,
    random_pi_element,
    random_skew_pairing,
    random_surgery_instance,
)
from nanocob.moves import Move, neighbors, site_moves
from nanocob.pairings import (
    AlphaPairing,
    OrbitPoly,
    PairingError,
    TupleSpace,
    WeakVector,
    annihilating_fillings,
    are_cobordant,
    are_isomorphic,
    count_fillings,
    covering,
    enumerate_fillings,
    filling_is_annihilating,
    format_vector,
    full_subgroups,
    genus,
    genus_of_filling,
    is_hyperbolic,
    is_hyperbolic_tuple,
    m_shift,
    pairing_of_nanoword,
    pairing_of_nanoword_alt,
    phi_sign_battery,
    r_of,
    sum_pairings,
    tautological_filling,
    tuple_genus,
    u_degree,
    u_polynomial,
    u_polynomial_of_nanoword,
    verify_surgery_filling,
    weakly_cobordant,
)
from nanocob.intlinalg import rank_mod_p, rational_rank
from nanocob.words import Nanoword
from nanocob import pairings as pairings_module

from _pairing_oracle import (
    enumerate_weak_fillings,
    evaluate,
    flat_fillings,
    flat_genus,
    flat_is_hyperbolic,
    matching_is_hyperbolic_tuple,
    matching_tuple_genus,
    product_is_hyperbolic_tuple,
    product_tuple_genus,
    sparse_apply,
    sparse_make,
    tuple_evaluate,
)


# sha256 of the coordinate tables of ``test_coords_pinned``'s sample
PAIRING_SAMPLE_SHA256 = "abefc8cbcd9be60846037517400b78e487e1f8ccf3679259afbbbf30b5d8978b"


def pi(ground, text_free=(), torsion=()):
    return PiElement.make(ground, dict(text_free), torsion)


class TestPairingOfNanoword:
    def test_six_letter_reference_matrix(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        p = pairing_of_nanoword(w)
        g = three_free
        expect = {
            ("s", "A"): pi(g, {"c": -1}),
            ("s", "B"): pi(g, {"c": -1}),
            ("s", "C"): pi(g, {"a": 1, "b": 1}),
            ("A", "B"): pi(g),
            ("A", "C"): pi(g, {"a": 1, "b": 2, "c": 1}),
            ("B", "C"): pi(g, {"b": 1, "c": 1}),
        }
        labels = {"s": 0, "A": 1, "B": 2, "C": 3}
        for (row, col), value in expect.items():
            assert p.entry(labels[row], labels[col]) == value
            assert p.entry(labels[col], labels[row]) == -value
        assert p.entry(0, 0).is_zero()

    def test_doubled_letter_is_zero(self, two_free, word_factory):
        p = pairing_of_nanoword(word_factory(two_free, "AA", A="a"))
        assert all(v.is_zero() for row in p.matrix for v in row)

    def test_linked_pair_hand_computed(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        p = pairing_of_nanoword(w)
        assert p.entry(1, 2) == pi(two_free, {"a": 1, "b": 1})
        assert p.entry(1, 0) == pi(two_free, {"b": 1})
        assert p.entry(2, 0) == pi(two_free, {"a": -1})

    def test_skew_symmetry_random(self, mixed):
        rng = random.Random(20)
        for _ in range(30):
            w = random_nanoword(rng, mixed, rng.randint(0, 5))
            assert pairing_of_nanoword(w).is_skew_symmetric()

    def test_alternate_route_agrees(self, mixed, three_free):
        fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        rng = random.Random(21)
        for low, high, count in ((0, 6, 60), (7, 10, 30)):
            for ground in (mixed, three_free, fixed):
                for _ in range(count):
                    w = random_nanoword(rng, ground, rng.randint(low, high))
                    assert (
                        pairing_of_nanoword(w).matrix
                        == pairing_of_nanoword_alt(w).matrix
                    )

    def test_coords_pinned(self, mixed, three_free):
        """The coordinate tables of a seeded sample keep the digest pinned
        from an earlier kernel: a slip that the alternative route shares
        would still move it."""
        fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        rng = random.Random(31)
        digest = hashlib.sha256()
        for ground in (three_free, mixed, fixed):
            for letters in range(11):
                for _ in range(10):
                    w = random_nanoword(rng, ground, letters)
                    digest.update(repr(pairing_of_nanoword(w).coords).encode())
        assert digest.hexdigest() == PAIRING_SAMPLE_SHA256

    def test_coords_view_matches_matrix(self, two_free, mixed):
        fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        rng = random.Random(62)
        pairings = []
        for ground in (two_free, fixed, mixed):
            for _ in range(40):
                w = random_nanoword(rng, ground, rng.randint(0, 6))
                p = pairing_of_nanoword(w)
                assert p.matrix == pairing_of_nanoword_alt(w).matrix
                pairings.append(p)
            for _ in range(10):
                q = random_skew_pairing(rng, ground, rng.randint(0, 3))
                pairings += [q, q.opposite(), sum_pairings(q, p)]
        # shifts of all of them, and tables built from PiElement entries
        extra = random.Random(63)
        for p in list(pairings):
            if p.num_letters:
                letter = extra.randint(1, p.num_letters)
                pairings.append(m_shift(p, letter, extra.randint(-2, 2)))
        for ground in (fixed, mixed):
            prev = AlphaPairing.trivial(ground)
            for _ in range(20):
                m = extra.randint(0, 3)
                entries = {
                    (i, j): random_pi_element(extra, ground)
                    for i in range(m + 1)
                    for j in range(m + 1)
                }
                p = AlphaPairing.build(ground, [extra.choice(ground.symbols) for _ in range(m)], entries)
                assert all(p.entry(i, j) == v for (i, j), v in entries.items())
                total = sum_pairings(prev, p)
                assert r_of(total) == r_of(prev) + r_of(p)
                pairings += [p, total]
                prev = p
        # the checks no kernel repeats at run time: shape, coordinate
        # count and fixed bits
        for p in pairings:
            size = p.num_letters + 1
            assert len(p.coords) == size and all(len(row) == size for row in p.coords)
            assert all(len(v) == p.ground.dimension for row in p.coords for v in row)
            assert p.coords == tuple(tuple(v.coords for v in row) for row in p.matrix)
            nfree = len(p.ground.free_reps())
            assert all(bit in (0, 1) for row in p.coords for v in row for bit in v[nfree:])

    def test_malformed_tables_rejected(self, two_free, mixed):
        """A malformed table never becomes an ``AlphaPairing``: ``build``,
        the one entry for a table in loose parts, rejects it."""
        three_a = PiElement.make(mixed, {"a": 3})
        AlphaPairing.build(mixed, ("a",), {(1, 0): three_a, (0, 1): -three_a}, ("A",))
        for proj, entries, names, error in (
            (("a",), {}, ("A", "B"), PairingError),  # names misaligned
            (("a", "q"), {}, None, AlphabetError),  # unknown proj symbol
            (("a",), {(-1, 0): three_a}, None, PairingError),
            (("a",), {(0, -1): three_a}, None, PairingError),
            (("a",), {(2, 0): three_a}, None, PairingError),  # m + 1
            (("a",), {(1, 2): three_a}, None, PairingError),
            (("a",), {(1, 0): (3, 0)}, None, PairingError),  # coordinates, not a value
        ):
            with pytest.raises(error):
                AlphaPairing.build(mixed, proj, entries, names)
        # a value over another alphabet, though of the same dimension
        assert two_free.dimension == mixed.dimension
        with pytest.raises(PairingError):
            AlphaPairing.build(two_free, ("a",), {(1, 0): three_a})

    def test_opposite_word_gives_opposite_pairing(self, mixed):
        rng = random.Random(22)
        for _ in range(20):
            w = random_nanoword(rng, mixed, rng.randint(0, 5))
            assert (
                pairing_of_nanoword(w.opposite()).matrix
                == pairing_of_nanoword(w).opposite().matrix
            )

    def test_concatenation_gives_sum(self, two_free):
        rng = random.Random(23)
        for _ in range(15):
            w1 = random_nanoword(rng, two_free, rng.randint(0, 3))
            w2 = random_nanoword(rng, two_free, rng.randint(0, 3))
            whole = pairing_of_nanoword(w1.concatenate(w2))
            blocks = sum_pairings(
                pairing_of_nanoword(w1), pairing_of_nanoword(w2)
            )
            assert whole.proj == blocks.proj
            assert whole.matrix == blocks.matrix

    def test_push_forward_commutes_with_pairing(self, two_free, pm):
        """Pushing the word forward then pairing equals pairing then
        mapping the values along the induced homomorphism."""
        rng = random.Random(19)
        f = {"a": "+", "A": "-", "b": "-", "B": "+"}

        def push_value(x):
            out = PiElement.zero(pm)
            free, torsion = x.free, x.torsion
            for rep, coeff in free:
                out = out + PiElement.of_letter(pm, f[rep]).scaled(coeff)
            assert not torsion
            return out

        for _ in range(20):
            w = random_nanoword(rng, two_free, rng.randint(0, 4))
            pushed = pairing_of_nanoword(w.push_forward(f, pm))
            original = pairing_of_nanoword(w)
            size = original.num_letters + 1
            for i in range(size):
                for j in range(size):
                    assert pushed.matrix[i][j] == push_value(original.matrix[i][j])


class TestSumOpposite:
    def test_sum_with_trivial_is_isomorphic(self, two_free, word_factory):
        p = pairing_of_nanoword(word_factory(two_free, "ABAB", A="a", B="b"))
        total = sum_pairings(p, AlphaPairing.trivial(two_free))
        assert are_isomorphic(total, p)

    def test_opposite_involution(self, two_free):
        rng = random.Random(24)
        p = random_skew_pairing(rng, two_free, 3)
        assert p.opposite().opposite().matrix == p.matrix

    def test_sum_commutative_up_to_isomorphism(self, two_free):
        rng = random.Random(25)
        p1 = random_skew_pairing(rng, two_free, 2)
        p2 = random_skew_pairing(rng, two_free, 1)
        assert are_isomorphic(sum_pairings(p1, p2), sum_pairings(p2, p1))


class TestFillings:
    def test_pairable_same_projection(self, two_free):
        p = AlphaPairing.build(two_free, ("a", "a"), {})
        fillings = list(enumerate_fillings(p))
        rendered = {
            tuple(format_vector(p, v) for v in f) for f in fillings
        }
        assert rendered == {("s", "S1", "S2"), ("s", "S1+S2")}

    def test_empty_core_has_one_filling(self, two_free):
        p = AlphaPairing.trivial(two_free)
        assert list(enumerate_fillings(p)) == [(((0, 1),),)]

    def test_distinct_orbits_only_tautological(self, two_free):
        p = AlphaPairing.build(two_free, ("a", "b"), {})
        fillings = list(enumerate_fillings(p))
        assert fillings == [tautological_filling(p)]

    def test_tau_related_gives_difference_vector(self, two_free):
        p = AlphaPairing.build(two_free, ("a", "A"), {})
        rendered = {
            tuple(format_vector(p, v) for v in f)
            for f in enumerate_fillings(p)
        }
        assert rendered == {("s", "S1", "S2"), ("s", "S1-S2")}

    def test_fixed_point_projection_allows_both_signs(self, mixed):
        p = AlphaPairing.build(mixed, ("c", "c"), {})
        assert len(list(enumerate_fillings(p))) == 3

    @pytest.mark.parametrize(
        "ground",
        [
            InvolutiveAlphabet.fixed_point_free(("a",), ("x",)),
            InvolutiveAlphabet.fixed_point_free(("a", "b"), ("x", "y")),
            InvolutiveAlphabet.build(("a", "x", "c"), {"a": "x", "x": "a", "c": "c"}),
            InvolutiveAlphabet.build(("a",), {"a": "a"}),
        ],
        ids=["ax", "ax-by", "ax-cc", "aa"],
    )
    def test_count_matches_walk(self, ground):
        """The closed-form count against the walk it replaces in
        ``nanocob fillings``."""
        rng = random.Random(23)
        for _ in range(100):
            p = pairing_of_nanoword(random_nanoword(rng, ground, rng.randint(0, 8)))
            assert count_fillings(p) == sum(1 for _ in enumerate_fillings(p))


class TestHyperbolicity:
    def test_linked_reference_word_hyperbolic(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCADCBD", A="a", B="A", C="c", D="c")
        p = pairing_of_nanoword(w)
        filling = is_hyperbolic(p)
        assert filling is not None
        rendered = tuple(format_vector(p, v) for v in filling)
        assert rendered == ("s", "A-B", "C+D")
        assert filling_is_annihilating(p, filling)

    def test_six_letter_word_not_hyperbolic(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        assert is_hyperbolic(pairing_of_nanoword(w)) is None

    def test_six_letter_same_orbit_not_hyperbolic(self, two_free, word_factory):
        w = word_factory(two_free, "ABCBAC", A="a", B="a", C="a")
        assert w.gamma().is_identity()
        assert is_hyperbolic(pairing_of_nanoword(w)) is None

    def test_trivial_pairing_hyperbolic(self, two_free):
        assert is_hyperbolic(AlphaPairing.trivial(two_free)) is not None


class TestCobordance:
    def test_reflexive(self, two_free):
        rng = random.Random(26)
        for _ in range(10):
            p = random_skew_pairing(rng, two_free, rng.randint(0, 3))
            assert are_cobordant(p, p)

    def test_surgery_images_cobordant(self, mixed):
        """Surgeries, and then every child that ``neighbors`` yields (H1, H2,
        H3, inverse H3, SURG and template INS), keep the pairing's cobordism
        class: on seeded words over each suite alphabet, the first word
        drawn and each later one with a move kind not yet seen."""
        rng = random.Random(27)
        for _ in range(40):
            w, surgery = random_surgery_instance(rng, mixed, max_total_length=10)
            x = surgery.apply(w)
            assert are_cobordant(pairing_of_nanoword(w), pairing_of_nanoword(x))
        every = {"H1", "H2", "H3", "INV H3", "SURG", "INS"}
        for ground in _SUITE_ALPHABETS:
            seen = set()
            for _ in range(2000):
                w = random_nanoword(rng, ground, rng.randint(2, 5))
                kinds = {"INV " * move.inverse + move.kind for move in site_moves(w)} | {"INS"}
                if kinds <= seen:
                    continue
                seen |= kinds
                p = pairing_of_nanoword(w)
                for move, key in neighbors(w):
                    x = move.apply(w)
                    assert x.canonical_key() == key
                    assert are_cobordant(p, pairing_of_nanoword(x)), (w, move.to_line())
                if seen == every:
                    break
            assert seen == every, ground

    def test_trivial_vs_linked_pair(self, two_free, word_factory):
        p = pairing_of_nanoword(word_factory(two_free, "ABAB", A="a", B="b"))
        assert not are_cobordant(AlphaPairing.trivial(two_free), p)


class TestSurgeryFilling:
    def test_inner_square_deletion(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABACDCDB", A="a", B="a", C="c", D="c")
        assert verify_surgery_filling(w, Move("SURG", ((2, 3), ((3, 7),))))

    def test_word_times_reverse(self, two_free):
        rng = random.Random(28)
        for _ in range(10):
            v = random_nanoword(rng, two_free, rng.randint(1, 3))
            w = v.concatenate(v.opposite())
            surgery = Move("SURG", (tuple(range(w.num_letters)), ((0, w.length),)))
            assert verify_surgery_filling(w, surgery)

    def test_random_instances(self, mixed, two_free):
        rng = random.Random(29)
        for ground in (mixed, two_free):
            for _ in range(50):
                w, surgery = random_surgery_instance(rng, ground, max_total_length=12)
                assert verify_surgery_filling(w, surgery)


class TestUPolynomial:
    def test_hyperbolic_vanishes(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCADCBD", A="a", B="A", C="c", D="c")
        assert u_polynomial_of_nanoword(w).is_zero()

    def test_opposite_negates(self, mixed):
        rng = random.Random(30)
        for _ in range(20):
            p = random_skew_pairing(rng, mixed, rng.randint(1, 3))
            assert u_polynomial(p.opposite()) == -u_polynomial(p)

    def test_additive_over_sums(self, mixed):
        rng = random.Random(31)
        for _ in range(20):
            p1 = random_skew_pairing(rng, mixed, rng.randint(1, 2))
            p2 = random_skew_pairing(rng, mixed, rng.randint(1, 2))
            assert u_polynomial(sum_pairings(p1, p2)) == u_polynomial(p1) + u_polynomial(p2)

    def test_tau_antisymmetry(self, mixed):
        rng = random.Random(32)
        for _ in range(20):
            u = u_polynomial(random_skew_pairing(rng, mixed, rng.randint(1, 3)))
            for rep in mixed.free_reps():
                assert u.value(mixed.tau(rep)) == -u.value(rep)

    def test_six_letter_reference_values(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        u = u_polynomial_of_nanoword(w)
        value_c = u.value("c")
        # single monomial class delta_{-a-b} = -delta_{a+b}
        assert value_c.terms == ((pi(three_free, {"a": 1, "b": 1}), -1),)

    def test_reference_values_with_repeated_projection(self, two_free, word_factory):
        # c = a makes the doubled-letter contribution r = 1 visible
        w = word_factory(two_free, "ABCBAC", A="a", B="b", C="a")
        u = u_polynomial_of_nanoword(w)
        terms = dict(u.value("a").terms)
        assert terms[pi(two_free, {"a": 1, "b": 1})] == -1
        assert terms[pi(two_free, {"a": 1})] == 1

    def test_unlinked_word_zero(self, two_free, word_factory):
        assert u_polynomial_of_nanoword(
            word_factory(two_free, "AABB", A="a", B="b")
        ).is_zero()

    def test_fixed_orbit_values_live_mod_two(self, mixed, word_factory):
        w = word_factory(mixed, "ABAB", A="c", B="a")
        u = u_polynomial_of_nanoword(w)
        value = u.value("c")
        assert value.terms == ((pi(mixed, {"a": 1}), 1),)
        assert -value == value  # mod-2 coefficients on a fixed orbit
        doubled = value + value
        assert doubled.is_zero()


class TestDegree:
    def test_reference_degree(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        assert u_degree(u_polynomial_of_nanoword(w), "c") == 2

    def test_zero_has_degree_zero(self, two_free, word_factory):
        u = u_polynomial_of_nanoword(word_factory(two_free, "AABB", A="a", B="b"))
        assert u_degree(u, "a") == 0

    def test_monomial_degree_adds_magnitudes(self, two_free):
        poly = OrbitPoly.build("free", [(pi(two_free, {"a": 1, "b": 2}), 1)])
        assert poly.degree() == 3

    def test_degree_requires_fixed_point_free(self, mixed, word_factory):
        u = u_polynomial_of_nanoword(word_factory(mixed, "AA", A="a"))
        with pytest.raises(Exception):
            u_degree(u, "a")


class TestGenus:
    def test_hyperbolic_genus_zero(self, word_factory):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))
        w = word_factory(ground, "ABCADCBD", A="a", B="A", C="c", D="c")
        phi = PhiSpec.rationals(ground, {"a": 1, "c": 1})
        assert genus(pairing_of_nanoword(w), phi).twice == 0

    def test_six_letter_reference_genus(self, three_free, word_factory):
        w = word_factory(three_free, "ABCBAC", A="a", B="b", C="c")
        p = pairing_of_nanoword(w)
        phi = PhiSpec.rationals(three_free, {"a": 1, "b": 1, "c": 1})
        g = genus(p, phi)
        assert g.twice == 4  # sigma = 2
        assert genus_of_filling(p, phi, tautological_filling(p)).twice == 4

    def test_opposite_preserves_genus(self, two_free):
        rng = random.Random(33)
        for _ in range(15):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 3))
            phi = rng.choice(phi_sign_battery(two_free))
            assert genus(p, phi).twice == genus(p.opposite(), phi).twice

    def test_triangle_inequality(self, two_free):
        rng = random.Random(34)
        for _ in range(25):
            phi = rng.choice(phi_sign_battery(two_free))
            ps = [random_skew_pairing(rng, two_free, rng.randint(1, 2)) for _ in range(3)]
            s12 = genus(sum_pairings(ps[0], ps[1].opposite()), phi).twice
            s23 = genus(sum_pairings(ps[1], ps[2].opposite()), phi).twice
            s13 = genus(sum_pairings(ps[0], ps[2].opposite()), phi).twice
            assert s12 + s23 >= s13

    def test_subadditivity(self, two_free):
        rng = random.Random(35)
        for _ in range(25):
            phi = rng.choice(phi_sign_battery(two_free))
            p1 = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            p2 = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            assert (
                genus(p1, phi).twice + genus(p2, phi).twice
                >= genus(sum_pairings(p1, p2), phi).twice
            )

    def test_gf2_genus(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        phi = PhiSpec.prime_field(two_free, 2, {"a": 1, "b": 1})
        assert genus(pairing_of_nanoword(w), phi).twice in (0, 2, 4)

    def test_fractional_phi_scales_out(self):
        """A genus is a Gram rank, so scaling the map by a nonzero integer c
        (a unit of the field: over GF(p), c coprime to p) leaves it
        unchanged; this is why a map with fractions has an integral twin.
        Random words of 3-5 letters over the free and mixed suite
        alphabets, over Q, GF(5) and GF(7)."""
        rng = random.Random(63)
        checked = positive = 0
        for ground in _SUITE_ALPHABETS:
            for prime in (0, 5, 7):
                for _ in range(4):
                    values = {r: rng.choice((-2, -1, 1, 2, 3)) for r in ground.free_reps()}
                    p = pairing_of_nanoword(random_nanoword(rng, ground, rng.randint(3, 5)))
                    q = pairing_of_nanoword(random_nanoword(rng, ground, rng.randint(1, 2)))
                    genera = set()
                    for c in (1, -3, -2, 2, 3):
                        scaled = {r: c * v for r, v in values.items()}
                        phi = (
                            PhiSpec.prime_field(ground, prime, scaled)
                            if prime
                            else PhiSpec.rationals(ground, scaled)
                        )
                        genera.add((genus(p, phi).twice, tuple_genus((p, q), phi, 1).twice))
                    assert len(genera) == 1
                    checked += 1
                    positive += genera.pop()[0] > 0
        assert checked == 36 and positive >= 12

    def test_skew_pairings_have_integer_genus(self, mixed, two_free):
        rng = random.Random(48)
        for ground in (two_free, mixed):
            for _ in range(15):
                p = random_skew_pairing(rng, ground, rng.randint(0, 3))
                for phi in phi_sign_battery(ground):
                    assert genus(p, phi).twice % 2 == 0


class TestGenusOracle:
    @staticmethod
    def _oracle_fillings(p):
        """Independent filling enumerator: all set partitions of the
        letters into blocks of size one or two, filtered for admissible
        signed pairs."""
        import itertools as it

        m = p.num_letters
        letters = list(range(1, m + 1))

        def partitions(items):
            if not items:
                yield []
                return
            head, rest = items[0], items[1:]
            for sub in partitions(rest):
                yield [[head]] + sub
            for k in range(len(rest)):
                for sub in partitions(rest[:k] + rest[k + 1 :]):
                    yield [[head, rest[k]]] + sub

        tau = p.ground.tau
        for blocks in partitions(letters):
            options = []
            for block in blocks:
                if len(block) == 1:
                    options.append([((block[0], 1),)])
                else:
                    a, b = block
                    signs = []
                    if p.proj[a - 1] == p.proj[b - 1]:
                        signs.append(1)
                    if p.proj[a - 1] == tau(p.proj[b - 1]):
                        signs.append(-1)
                    if not signs:
                        options.append([])
                    else:
                        options.append([((a, 1), (b, s)) for s in signs])
            for chosen in it.product(*options):
                yield (((0, 1),),) + tuple(chosen)

    def test_filling_enumeration_matches_oracle(self, mixed, two_free):
        rng = random.Random(45)
        for ground in (mixed, two_free):
            for _ in range(10):
                p = random_skew_pairing(rng, ground, rng.randint(0, 4))
                ours = {frozenset(f) for f in enumerate_fillings(p)}
                oracle = {frozenset(f) for f in self._oracle_fillings(p)}
                assert ours == oracle

    def test_genus_matches_fraction_gauss_minimum(self, two_free):
        from fractions import Fraction

        from test_intlinalg import gauss_rank_oracle

        rng = random.Random(46)
        for _ in range(12):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 3))
            phi = rng.choice(phi_sign_battery(two_free))
            best = None
            for filling in self._oracle_fillings(p):
                gram = [
                    [Fraction(phi.apply(evaluate(p, x, y))) for y in filling]
                    for x in filling
                ]
                rank = gauss_rank_oracle(gram)
                best = rank if best is None else min(best, rank)
            assert genus(p, phi).twice == best

    def test_same_projection_counts_follow_involution_numbers(self, two_free):
        telephone = {0: 1, 1: 1, 2: 2, 3: 4, 4: 10, 5: 26}
        for m, expected in telephone.items():
            p = AlphaPairing.build(two_free, ("a",) * m, {})
            assert sum(1 for _ in enumerate_fillings(p)) == expected


class TestScalarTableOracle:
    """``_phi_matrix`` entry by entry against ``sparse_apply`` on the
    sparse view of each value; ``flat_genus`` shares ``_phi_matrix`` and
    cannot check it."""

    @staticmethod
    def _phis(ground):
        free, fixed = ground.free_reps(), ground.fixed_reps()
        return (
            PhiSpec.rationals(ground, {r: 2 * k - 5 for k, r in enumerate(free, 1)}),
            PhiSpec.prime_field(ground, 2, dict.fromkeys(free + fixed, 1)),
            PhiSpec.prime_field(ground, 7, {r: 3 * k - 1 for k, r in enumerate(free, 1)}),
        )

    def test_entries_match_sparse_apply(self, two_free, mixed):
        fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        rng = random.Random(64)
        checked = 0
        for ground in (two_free, mixed, fixed):
            tables = []
            for _ in range(8):
                p = pairing_of_nanoword(random_nanoword(rng, ground, rng.randint(0, 6)))
                q = random_skew_pairing(rng, ground, rng.randint(0, 3))
                tables += [p, q, TupleSpace((q, p.opposite()))]
            for table in tables:
                for phi in self._phis(ground):
                    matrix = pairings_module._phi_matrix(table, phi)
                    assert len(matrix) == len(table.coords)
                    for row, values in zip(matrix, table.coords):
                        assert len(row) == len(values)
                        for got, c in zip(row, values):
                            v = PiElement(ground, c)
                            sparse = sparse_make(ground, dict(v.free), v.torsion)
                            assert got == sparse_apply(phi, sparse)
                            checked += 1
        assert checked > 1000


class TestWeakFillings:
    def test_embedded_filling_found_for_hyperbolic_sum(self, two_free):
        rng = random.Random(36)
        found = 0
        for _ in range(20):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            # p (+) p^- is hyperbolic, so the pair (p, p^-) must be too
            witness = is_hyperbolic_tuple((p, p.opposite()), 2)
            assert witness is not None
            found += 1
        assert found == 20

    def test_trivial_component_does_not_change_tuple_genus(self, two_free):
        rng = random.Random(37)
        for _ in range(10):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            phi = rng.choice(phi_sign_battery(two_free))
            alone = tuple_genus((p,), phi, 2).twice
            padded = tuple_genus((p, AlphaPairing.trivial(two_free)), phi, 2).twice
            assert alone == padded

    def test_sandwich_inequality(self, two_free):
        rng = random.Random(38)
        for _ in range(15):
            phi = rng.choice(phi_sign_battery(two_free))
            p1 = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            p2 = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            whole = genus(sum_pairings(p1, p2), phi).twice
            weak = tuple_genus((p1, p2), phi, 2).twice
            assert whole >= weak >= whole - 2

    def test_tuple_genus_pinned_values(self):
        """Doubled tuple genera of the first 30 pairs of the sandwich
        suite's seed-0 stream under its sign maps, and of the first 10
        pairs also under a GF(2) and a GF(3) map, as the weak search with
        sparse PiElement arithmetic computed them."""
        from nanocob.explorer import _random_alphabet

        expected = [
            (2, 0, 2), (2, 0, 2), (0, 0, 0), (2, 0, 2), (2, 2, 2),
            (2, 2, 2), (2, 0, 2), (2, 2, 2), (2, 0, 2), (2, 2, 0),
        ] + [(2,), (2,), (0,), (2,), (2,), (2,), (2,), (2,), (2,), (2,),
             (2,), (2,), (0,), (2,), (2,), (2,), (2,), (2,), (0,), (2,)]
        rng = random.Random(0)
        got = []
        for trial in range(30):
            ground = _random_alphabet(rng)
            phis = [rng.choice(phi_sign_battery(ground))]
            p1 = random_skew_pairing(rng, ground, rng.randint(1, 2))
            p2 = random_skew_pairing(rng, ground, rng.randint(1, 2))
            if trial < 10:
                phis.append(PhiSpec.prime_field(ground, 2, {rep: 1 for rep, _ in ground.pairs}))
                phis.append(PhiSpec.prime_field(
                    ground, 3, {rep: k + 1 for k, rep in enumerate(ground.free_reps())}
                ))
            got.append(tuple(tuple_genus((p1, p2), phi, 2).twice for phi in phis))
        assert got == expected

    def test_distinguished_values_match_box(self, two_free, mixed):
        """Tuples with nonzero distinguished self-values r, which the sign
        and word pairings of the other tests never have, against the box
        search of TestWeakBoxOracle."""
        rng = random.Random(64)
        for ground in (two_free, mixed) * 3:
            pairings = tuple(
                sum_pairings(
                    random_skew_pairing(rng, ground, m),
                    AlphaPairing.distinguished_only(ground, random_pi_element(rng, ground)),
                )
                for m in rng.choice(((1,), (2,), (1, 1), (2, 1)))
            )
            phis = (
                rng.choice(phi_sign_battery(ground)),
                PhiSpec.prime_field(ground, 2, {rep: 1 for rep, _ in ground.pairs}),
            )
            box_hyperbolic, box_genera = TestWeakBoxOracle._box(pairings, phis)
            assert (is_hyperbolic_tuple(pairings, 1) is not None) == box_hyperbolic
            assert [tuple_genus(pairings, phi, 1).twice for phi in phis] == box_genera

    def test_empty_tuple_rejected(self, two_free):
        phi = phi_sign_battery(two_free)[0]
        for search in (lambda: is_hyperbolic_tuple(()), lambda: tuple_genus((), phi)):
            with pytest.raises(PairingError, match="at least one pairing"):
                search()

    def test_box_iterator_vectors_are_bounded(self, two_free):
        p1 = AlphaPairing.build(two_free, ("a",), {})
        p2 = AlphaPairing.build(two_free, ("a",), {})
        count = 0
        for filling in enumerate_weak_fillings((p1, p2), 1):
            count += 1
            head = filling[0]
            assert head.s_coeffs == (1, 1) and head.letters == ()
            for vec in filling[1:]:
                assert all(abs(c) <= 1 for c in vec.s_coeffs)
        # two matchings (singletons / pair) with 3^2 coefficient choices
        # per non-distinguished vector: 2*81 + 1*9... enumerated lazily
        assert count == 81 + 9

    def test_single_pairing_tuple_matches_genus(self, two_free):
        rng = random.Random(39)
        for _ in range(10):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 3))
            phi = rng.choice(phi_sign_battery(two_free))
            assert tuple_genus((p,), phi, 2).twice == genus(p, phi).twice

    def test_single_pairing_tuple_hyperbolicity_agrees(self, two_free):
        rng = random.Random(49)
        for _ in range(20):
            p = random_skew_pairing(rng, two_free, rng.randint(0, 3))
            assert (is_hyperbolic(p) is not None) == (
                is_hyperbolic_tuple((p,), 2) is not None
            )



class TestWeakBoxOracle:
    """The normalized weak-filling searches against the literal box search
    of ``enumerate_weak_fillings`` with Gram matrices from
    ``tuple_evaluate``, at ``s_bound`` 1."""

    @staticmethod
    def _box(pairings, phis):
        """(some box filling annihilates, least doubled genus per phi)."""
        space = TupleSpace(tuple(pairings))
        best = [None] * len(phis)
        for filling in enumerate_weak_fillings(pairings, 1):
            values = [[tuple_evaluate(space, x, y) for y in filling] for x in filling]
            if all(v.is_zero() for row in values for v in row):
                return True, [0] * len(phis)
            for k, phi in enumerate(phis):
                gram = [[phi.apply(v) for v in row] for row in values]
                if not phi.prime:
                    rank = rational_rank(gram)
                else:
                    rank = rank_mod_p(gram, phi.prime)
                best[k] = rank if best[k] is None else min(best[k], rank)
        return False, best

    def test_search_matches_box(self, two_free, mixed):
        fixed = InvolutiveAlphabet.build(("c",), {"c": "c"})
        rng = random.Random(50)
        hyperbolic = 0
        for ground in (two_free, mixed, fixed) * 6:
            sizes = rng.choice(((1,), (2,), (3,), (1, 1), (1, 2), (2, 1)))
            pairings = tuple(random_skew_pairing(rng, ground, m) for m in sizes)
            if sizes[0] == 1 and rng.random() < 0.5:  # (p, p^-) always has a weak filling
                pairings = (pairings[0], pairings[0].opposite())
            phis = (
                rng.choice(phi_sign_battery(ground)),
                PhiSpec.prime_field(ground, 2, {rep: 1 for rep, _ in ground.pairs}),
            )
            box_hyperbolic, box_genera = self._box(pairings, phis)
            witness = is_hyperbolic_tuple(pairings, 1)
            assert (witness is not None) == box_hyperbolic
            if witness is not None:
                hyperbolic += 1
                space = TupleSpace(pairings)
                assert all(tuple_evaluate(space, x, y).is_zero() for x in witness for y in witness)
            assert [tuple_genus(pairings, phi, 1).twice for phi in phis] == box_genera
        assert hyperbolic >= 3


class TestWeakProductOracle:
    """The pruned weak-filling searches against the unpruned product-order
    search they replaced (``product_tuple_genus`` and
    ``product_is_hyperbolic_tuple``), at ``s_bound`` 1 and 2."""

    # (letters per pairing, s_bound): every product stays a few thousand
    # leaves per matching
    SHAPES = (
        ((1,), 1), ((2,), 2), ((3,), 2), ((1, 1), 1), ((1, 1), 2), ((1, 2), 2),
        ((2, 1), 2), ((2, 2), 1), ((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1),
        ((0, 1, 0), 2),
    )

    def test_search_matches_product(self, two_free, mixed):
        fixed = InvolutiveAlphabet.build(("c",), {"c": "c"})
        rng = random.Random(70)
        hyperbolic = odd = 0
        for ground in (two_free, mixed, fixed) * 30:
            sizes, s_bound = rng.choice(self.SHAPES)
            pairings = tuple(random_skew_pairing(rng, ground, m) for m in sizes)
            kind = rng.randrange(3)
            if kind == 1:
                # nonzero distinguished self-values: Gram matrices of odd rank
                pairings = tuple(
                    sum_pairings(
                        p, AlphaPairing.distinguished_only(ground, random_pi_element(rng, ground))
                    )
                    for p in pairings
                )
            elif kind == 2 and sizes in ((1,), (2,)):  # (p, p^-) always has a weak filling
                pairings = (pairings[0], pairings[0].opposite())
            phis = (
                rng.choice(phi_sign_battery(ground)),
                PhiSpec.prime_field(ground, 2, {rep: 1 for rep, _ in ground.pairs}),
                PhiSpec.prime_field(
                    ground, 3, {rep: k + 1 for k, rep in enumerate(ground.free_reps())}
                ),
            )
            for phi in phis:
                expected = product_tuple_genus(pairings, phi, s_bound)
                assert tuple_genus(pairings, phi, s_bound).twice == expected
                odd += expected % 2
            witness = product_is_hyperbolic_tuple(pairings, s_bound)
            assert is_hyperbolic_tuple(pairings, s_bound) == witness
            hyperbolic += witness is not None
        assert hyperbolic >= 10 and odd >= 10


class _Entry:
    """A Gram entry that remembers the two slots it pairs; it compares by
    value, as the walk's distinguished-coefficient probe does."""

    def __init__(self, value, x, y):
        self.value, self.x, self.y = value, x, y

    def __eq__(self, other):
        return self.value == other.value


class TestFillingWalkOracle:
    """The filling walk against the searches it replaced: the flat
    ``genus`` and ``is_hyperbolic`` loops over every whole filling, and the
    weak search that walked each matching from the root in turn.  Tables
    with nonzero distinguished values and tables that are not skew give
    Gram matrices of odd rank, which skew tables never have."""

    FIXED = InvolutiveAlphabet.build(("c",), {"c": "c"})

    @staticmethod
    def _phis(rng, ground):
        """A sign map, a map over Q, a GF(2) map and a GF(3) map.  The Q
        map has weights 2n/d for random n and d in {1, 2}: the integral
        twin, with the same genera, of the map with values n/d."""
        free = ground.free_reps()
        return (
            rng.choice(phi_sign_battery(ground)),
            PhiSpec.rationals(
                ground, {rep: rng.randint(-3, 3) * (2 // rng.randint(1, 2)) for rep in free}
            ),
            PhiSpec.prime_field(ground, 2, {rep: rng.randint(0, 1) for rep, _ in ground.pairs}),
            PhiSpec.prime_field(ground, 3, {rep: rng.randint(0, 2) for rep in free}),
        )

    @staticmethod
    def _table(rng, ground, m, kind):
        if kind == "word":
            return pairing_of_nanoword(random_nanoword(rng, ground, m))
        if kind == "skew":
            return random_skew_pairing(rng, ground, m)
        if kind == "distinguished":
            r = random_pi_element(rng, ground)
            return sum_pairings(
                random_skew_pairing(rng, ground, m), AlphaPairing.distinguished_only(ground, r)
            )
        # an entry may vanish while its transpose does not
        entries = {
            (i, j): random_pi_element(rng, ground) for i in range(m + 1) for j in range(m + 1)
        }
        return AlphaPairing.build(ground, [rng.choice(ground.symbols) for _ in range(m)], entries)

    def test_single_pairings_match_flat_searches(self, two_free, mixed):
        """Genus, witnesses and the filling listing, exactly, on 1,680
        pairings of 0-7 letters: 1,440 word and skew pairings plus 240
        tables with distinguished values or without skew symmetry."""
        rng = random.Random(72)
        checked = hyperbolic = odd = 0
        for ground in (two_free, mixed, self.FIXED):
            for m in range(8):
                for kind in ("word", "skew") * 30 + ("distinguished", "asymmetric") * 5:
                    p = self._table(rng, ground, m, kind)
                    phi = self._phis(rng, ground)[checked % 4]
                    assert list(enumerate_fillings(p)) == list(flat_fillings(p))
                    witness = is_hyperbolic(p)
                    assert witness == flat_is_hyperbolic(p)
                    twice = genus(p, phi).twice
                    assert twice == flat_genus(p, phi).twice
                    checked += 1
                    hyperbolic += witness is not None
                    odd += twice % 2
        assert checked == 1680 and hyperbolic >= 300 and odd >= 20

    def test_annihilating_fillings_match_per_filling_check(self, two_free, mixed):
        """The pruned walk yields exactly the fillings that pass the
        per-filling check, in listing order, on 315 tables of 0-6 letters."""
        rng = random.Random(73)
        checked = annihilating = 0
        for ground in (two_free, mixed, self.FIXED):
            for m in range(7):
                for kind in ("word", "skew") * 6 + ("distinguished", "asymmetric", "word"):
                    p = self._table(rng, ground, m, kind)
                    expected = [f for f in flat_fillings(p) if filling_is_annihilating(p, f)]
                    assert list(annihilating_fillings(p)) == expected
                    checked += 1
                    annihilating += len(expected)
        assert checked == 315 and annihilating >= 300

    def test_tuples_match_matching_major_search(self, two_free, mixed):
        rng = random.Random(73)
        hyperbolic = odd = 0
        for ground in (two_free, mixed, self.FIXED) * 20:
            sizes, s_bound = rng.choice(TestWeakProductOracle.SHAPES)
            kind = rng.choice(("skew", "word", "distinguished", "asymmetric"))
            pairings = tuple(self._table(rng, ground, m, kind) for m in sizes)
            if kind in ("skew", "word") and sizes in ((1,), (2,), (3,)):
                # (p, p^-) always has a weak filling
                pairings = (pairings[0], pairings[0].opposite())
            for phi in self._phis(rng, ground):
                twice = tuple_genus(pairings, phi, s_bound).twice
                assert twice == matching_tuple_genus(pairings, phi, s_bound).twice
                odd += twice % 2
            witness = is_hyperbolic_tuple(pairings, s_bound)
            expected = matching_is_hyperbolic_tuple(pairings, s_bound)
            assert (witness is None) == (expected is None)
            if witness is not None:
                space = TupleSpace(pairings)
                assert all(tuple_evaluate(space, x, y).is_zero() for x in witness for y in witness)
                hyperbolic += 1
        assert hyperbolic >= 10 and odd >= 10

    @staticmethod
    def _record(monkeypatch, asked):
        """Route the searches through a walk whose entries carry their
        slots.  Each prefix asked is checked to hold the entry of slots i
        and j at (i, j) and appended to ``asked`` as (table, slots, values);
        ``admit`` sees the values alone."""
        walk = pairings_module._walk_fillings

        def recording(table, pair, admit, s_bound=1, *, _pairs_first=False):
            def tagged(x, y):
                return _Entry(pair(x, y), x, y)

            def checked(gram):
                slots = [row[i].x for i, row in enumerate(gram)]
                assert all(
                    (e.x, e.y) == (slots[i], slots[j])
                    for i, row in enumerate(gram)
                    for j, e in enumerate(row)
                )
                values = [[e.value for e in row] for row in gram]
                asked.append((table, slots, values))
                return admit(values)

            return walk(table, tagged, checked, s_bound, _pairs_first=_pairs_first)

        monkeypatch.setattr(pairings_module, "_walk_fillings", recording)

    @staticmethod
    def _oracle_value(table, x, y):
        """The value of two slots, read block by block off the pairings'
        ``matrix``: a slot lists indices below r as distinguished
        coefficients and r + g as letter g."""
        if isinstance(table, AlphaPairing):
            return evaluate(table, x, y)
        r = len(table.pairings)

        def weak(slot):
            coeffs = dict(slot)
            return WeakVector(tuple((i - r, c) for i, c in slot if i >= r),
                              tuple(coeffs.get(t, 0) for t in range(r)))

        return tuple_evaluate(table, weak(x), weak(y))

    def test_walk_asks_grams_of_its_slots(self, monkeypatch, two_free, mixed):
        """Every Gram matrix the walk asks about, under the genus rule and
        the vanishing rule, equals the oracle Gram matrix of its slots."""
        asked = []
        self._record(monkeypatch, asked)
        rng = random.Random(74)
        total = 0
        for ground in (two_free, mixed, self.FIXED):
            for sizes, s_bound in ((5,), 1), ((7,), 1), *TestWeakProductOracle.SHAPES:
                kind = rng.choice(("word", "skew", "distinguished", "asymmetric"))
                if len(sizes) > 1 and kind == "word":
                    kind = "skew"
                pairings = tuple(self._table(rng, ground, m, kind) for m in sizes)
                single = len(sizes) == 1
                searches = [
                    (lambda: is_hyperbolic(pairings[0]) if single
                     else is_hyperbolic_tuple(pairings, s_bound), PiElement.is_zero, 0)
                ]
                for phi in self._phis(rng, ground):
                    searches.append((
                        lambda phi=phi: genus(pairings[0], phi) if single
                        else tuple_genus(pairings, phi, s_bound),
                        phi.apply, phi.prime,
                    ))
                for search, image, modulus in searches:
                    del asked[:]
                    search()
                    for table, slots, values in asked:
                        oracle = [[image(self._oracle_value(table, x, y)) for y in slots]
                                  for x in slots]
                        if modulus:  # the walk leaves prime-field values unreduced
                            values = [[v % modulus for v in row] for row in values]
                        assert values == oracle
                    total += len(asked)
        assert total > 5000

    def test_pairs_first_ranks_fewer_grams(self, monkeypatch, two_free, mixed):
        """The genus searches walk pairs before the singleton.  On the same
        seeded tables and tuples, under a sign map and a GF(2) map, the
        listing order (singleton first) gives the same genus and ranks
        strictly more Gram matrices in total."""
        walk, gram_rank = pairings_module._walk_fillings, pairings_module._gram_rank
        asked_order, order, ranks = set(), {}, {False: 0, True: 0}

        def ordered(*args, _pairs_first=False):
            asked_order.add(_pairs_first)
            return walk(*args, _pairs_first=order["pairs_first"])

        def counted(phi, gram):
            ranks[order["pairs_first"]] += 1
            return gram_rank(phi, gram)

        monkeypatch.setattr(pairings_module, "_walk_fillings", ordered)
        monkeypatch.setattr(pairings_module, "_gram_rank", counted)
        rng = random.Random(75)
        searches = odd = 0
        shapes = [((m,), 1) for m in range(2, 8)] + list(TestWeakProductOracle.SHAPES[3:9])
        for ground in (two_free, mixed, self.FIXED):
            for sizes, s_bound in shapes:
                for kind in ("word", "skew", "distinguished", "asymmetric"):
                    if len(sizes) > 1 and kind == "word":
                        kind = "skew"
                    pairings = tuple(self._table(rng, ground, m, kind) for m in sizes)
                    sign, _, gf2, _ = self._phis(rng, ground)
                    for phi in (sign, gf2):
                        genera = []
                        for pairs_first in (False, True):
                            order["pairs_first"] = pairs_first
                            if len(sizes) == 1:
                                genera.append(genus(pairings[0], phi).twice)
                            else:
                                genera.append(tuple_genus(pairings, phi, s_bound).twice)
                        assert genera[0] == genera[1]
                        searches += 1
                        odd += genera[0] % 2
        assert asked_order == {True}
        assert searches == 288 and odd >= 10
        assert ranks[True] < ranks[False]


class TestShiftOfPairings:
    def test_word_shift_matches_pairing_shift(self, mixed):
        rng = random.Random(40)
        for _ in range(30):
            w = random_nanoword(rng, mixed, rng.randint(1, 4))
            shifted = pairing_of_nanoword(w.circular_shift())
            expected = m_shift(pairing_of_nanoword(w), w.seq[0] + 1, 2)
            assert are_isomorphic(shifted, expected)

    def test_shift_twice_with_same_parameter_restores(self, two_free):
        rng = random.Random(41)
        for _ in range(15):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 3))
            for m in (-1, 0, 1, 2):
                once = m_shift(p, 1, m)
                assert are_isomorphic(m_shift(once, 1, m), p)

    def test_shift_preserves_hyperbolicity(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="A")
        p = pairing_of_nanoword(w)
        assert is_hyperbolic(p) is not None
        assert is_hyperbolic(m_shift(p, 1, 2)) is not None

    def test_shifted_pairing_weakly_cobordant(self, two_free):
        rng = random.Random(42)
        for _ in range(8):
            p = random_skew_pairing(rng, two_free, rng.randint(1, 2))
            assert weakly_cobordant(m_shift(p, 1, 2), p, 2)

    def test_distinguished_row_negated(self, two_free):
        rng = random.Random(43)
        p = random_skew_pairing(rng, two_free, 2)
        shifted = m_shift(p, 1, 2)
        assert shifted.entry(1, 0) == -p.entry(1, 0)
        assert shifted.proj[0] == two_free.tau(p.proj[0])

    def test_polynomial_invariant_under_pairing_shift(self, mixed, two_free):
        rng = random.Random(47)
        for ground in (two_free, mixed):
            for _ in range(15):
                p = random_skew_pairing(rng, ground, rng.randint(1, 3))
                letter = rng.randint(1, p.num_letters)
                assert u_polynomial(m_shift(p, letter, 2)) == u_polynomial(p)


class TestRInvariant:
    def test_word_pairings_have_zero_r(self, mixed):
        rng = random.Random(44)
        w = random_nanoword(rng, mixed, 3)
        assert r_of(pairing_of_nanoword(w)).is_zero()

    def test_distinguished_only_pairing(self, two_free):
        r = pi(two_free, {"a": 2})
        p = AlphaPairing.distinguished_only(two_free, r)
        assert r_of(p) == r
        assert not p.is_normal()

    def test_additive_over_sums(self, two_free):
        r1 = pi(two_free, {"a": 1})
        r2 = pi(two_free, {"b": -1})
        total = sum_pairings(
            AlphaPairing.distinguished_only(two_free, r1),
            AlphaPairing.distinguished_only(two_free, r2),
        )
        assert r_of(total) == r1 + r2

    def test_cobordant_pairings_share_r(self, two_free):
        r = pi(two_free, {"a": 3})
        p1 = AlphaPairing.distinguished_only(two_free, r)
        p2 = AlphaPairing.distinguished_only(two_free, pi(two_free, {"a": 1}))
        assert are_cobordant(p1, p1)
        assert not are_cobordant(p1, p2)


class TestCovering:
    def test_full_subgroups_keep_everything(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        assert covering(w, full_subgroups(two_free)) == w

    def test_zero_subgroups_keep_only_null_rows(self, two_free, word_factory):
        w = word_factory(two_free, "AABB", A="a", B="b")  # all e(.,s) vanish
        assert covering(w, {}).num_letters == 2
        linked = word_factory(two_free, "ABAB", A="a", B="b")
        assert covering(linked, {}).length == 0

    def test_even_sublattice(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        doubled = {
            rep: [pi(two_free, {other: 2}) for other in two_free.free_reps()]
            for rep in two_free.free_reps()
        }
        assert covering(w, doubled).length == 0

    def test_torsion_coordinates_respected(self, mixed, word_factory):
        w = word_factory(mixed, "ABAB", A="a", B="c")
        # e(A,s) = c (torsion), e(B,s) = -a
        sub = {"a": [pi(mixed, {}, ("c",))], "c": [pi(mixed, {}, ("c",))]}
        out = covering(w, sub)
        assert out.num_letters == 1 and out.proj == ("a",)

    def test_subgroups_keyed_by_any_orbit_member(self, two_free, word_factory):
        w = word_factory(two_free, "ABAB", A="a", B="b")
        # e(A,s) = b, e(B,s) = -a; present the subgroups on the partner keys
        sub = {
            "A": [pi(two_free, {"b": 1})],
            "B": [pi(two_free, {"a": 1})],
        }
        assert covering(w, sub) == w

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nanocob.algebra import (
    AlphabetError,
    FIXED,
    FREE,
    InvolutiveAlphabet,
    PhiSpec,
    PhiSpecError,
    PiElement,
    PiWord,
    Value,
    pi_word_is_conjugate,
)
from nanocob.explorer import (
    NOT_SLICE,
    BridgeReport,
    SliceVerdict,
    SuiteResult,
    classify_words,
    invariant_record,
    random_pi_element,
)
from nanocob.moves import Caps, Metamorphosis, Move, bounded_bfs
from nanocob.pairings import (
    Genus,
    OrbitPoly,
    TupleSpace,
    WeakVector,
    pairing_of_nanoword,
    u_polynomial,
)
from nanocob.parsing import parse_input
from nanocob.surfaces import ribbon_graph_of, surface_stats

import _gamma_oracle
import _pairing_oracle as oracle


class TestAlphabet:
    def test_involution_must_square_to_identity(self):
        with pytest.raises(AlphabetError):
            InvolutiveAlphabet.build(("a", "b", "c"), {"a": "b", "b": "c", "c": "a"})

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(AlphabetError):
            InvolutiveAlphabet.build(("a", "a"), {"a": "a"})

    @staticmethod
    def orbits(ab):
        """Each orbit's representative and kind, in orbit order, read off
        ``pairs``, ``free_reps()`` and ``fixed_reps()``."""
        kinds = {**dict.fromkeys(ab.free_reps(), FREE), **dict.fromkeys(ab.fixed_reps(), FIXED)}
        assert len(kinds) == len(ab.pairs)
        return [(rep, kinds[rep]) for rep, _ in ab.pairs]

    def test_orbit_decomposition_free(self):
        ab = InvolutiveAlphabet.build(("a", "b"), {"a": "b", "b": "a"})
        assert self.orbits(ab) == [("a", FREE)]

    def test_orbit_decomposition_fixed(self):
        ab = InvolutiveAlphabet.build(("a",), {"a": "a"})
        assert self.orbits(ab) == [("a", FIXED)]

    def test_orbit_decomposition_union(self):
        ab = InvolutiveAlphabet.build(
            ("a", "b", "c"), {"a": "b", "b": "a", "c": "c"}
        )
        assert self.orbits(ab) == [("a", FREE), ("c", FIXED)]

    def test_every_symbol_covered_once(self, three_free):
        members = [
            rep if rep == other else s
            for rep, other in three_free.pairs
            for s in (rep, other)
        ]
        assert sorted(members) == sorted(three_free.symbols)

    def test_representative_is_declaration_least(self):
        ab = InvolutiveAlphabet.build(("b", "a"), {"a": "b", "b": "a"})
        assert ab.orbit_rep("a") == "b"


class TestPiElement:
    def test_defining_relation(self, two_free):
        a = PiElement.of_letter(two_free, "a")
        ta = PiElement.of_letter(two_free, two_free.tau("a"))
        assert (a + ta).is_zero()
        assert ta == -a

    def test_fixed_point_torsion(self, mixed):
        c = PiElement.of_letter(mixed, "c")
        assert (c + c).is_zero()
        assert not c.is_zero()

    def test_sparse_structural_form(self, three_free):
        x = (
            PiElement.of_letter(three_free, "a")
            + PiElement.of_letter(three_free, "b").scaled(2)
            + PiElement.of_letter(three_free, "c")
        )
        assert x.free == (("a", 1), ("b", 2), ("c", 1))
        assert str(x) == "a+2b+c"

    def test_unknown_symbol(self, two_free):
        with pytest.raises(AlphabetError):
            PiElement.of_letter(two_free, "z")

    def test_zero_not_stored(self, two_free):
        x = PiElement.of_letter(two_free, "a") - PiElement.of_letter(two_free, "a")
        assert x.free == () and x.torsion == ()

    def test_coordinates_round_trip(self, mixed, three_free):
        rng = random.Random(60)
        for ground in (mixed, three_free):
            for _ in range(30):
                x = random_pi_element(rng, ground)
                assert PiElement.from_coordinates(ground, x.coords) == x
        # fixed-orbit entries are read mod 2
        assert PiElement.from_coordinates(mixed, (2, 3)) == PiElement.make(mixed, {"a": 2}, ("c",))

    def test_non_integer_coefficients_rejected(self, mixed):
        """Coefficients are integers: a float or a fraction is refused with
        ``AlphabetError`` instead of becoming a value like ``1.5a``."""
        for bad in (1.5, Fraction(1, 2), Fraction(2), 2.0, "1"):
            with pytest.raises(AlphabetError, match="coefficient of 'a' must be an integer"):
                PiElement.make(mixed, {"a": bad})
            with pytest.raises(AlphabetError, match="coordinate 0 must be an integer"):
                PiElement.from_coordinates(mixed, (bad, 1))
        assert PiElement.make(mixed, {"a": True}).coords == (1, 0)
        assert PiElement.from_coordinates(mixed, (True, 3)).coords == (1, 1)

    def test_non_integer_scale_rejected(self, mixed):
        """``scaled`` reads its factor as ``make`` reads a coefficient:
        ``1.5a`` and ``1/2a`` are no values."""
        a = PiElement.of_letter(mixed, "a")
        for bad in (1.5, Fraction(1, 2)):
            with pytest.raises(AlphabetError, match="scale factor must be an integer"):
                a.scaled(bad)
        assert a.scaled(True) == a and a.scaled(-3).coords == (-3, 0)


class TestPiWord:
    def test_inverse_pair_cancels(self, two_free):
        za = PiWord.generator(two_free, "a")
        assert (za * za.inverse()).is_identity()

    def test_commutator_reduced(self, two_free):
        za = PiWord.generator(two_free, "a")
        zb = PiWord.generator(two_free, "b")
        word = za * zb * za.inverse() * zb.inverse()
        assert word.syllables == (("a", 1), ("b", 1), ("a", -1), ("b", -1))

    def test_fixed_generator_order_two(self, mixed):
        zc = PiWord.generator(mixed, "c")
        assert (zc * zc).is_identity()

    def test_partner_is_inverse_generator(self, two_free):
        za = PiWord.generator(two_free, "a")
        zA = PiWord.generator(two_free, "A")
        assert (za * zA).is_identity()

    def test_reduction_idempotent(self, two_free):
        word = PiWord.from_syllables(two_free, [("a", 2), ("b", 1), ("b", -1), ("a", -2)])
        assert word.is_identity()

    @given(st.data())
    def test_associativity_and_unit(self, data):
        ground = InvolutiveAlphabet.fixed_point_free(("a", "b"), ("A", "B"))
        syl = st.lists(
            st.tuples(st.sampled_from(("a", "b")), st.integers(-2, 2)), max_size=4
        )
        u = PiWord.from_syllables(ground, data.draw(syl))
        v = PiWord.from_syllables(ground, data.draw(syl))
        w = PiWord.from_syllables(ground, data.draw(syl))
        assert (u * v) * w == u * (v * w)
        assert u * PiWord.identity(ground) == u

    def test_conjugate_by_construction(self, two_free):
        u = PiWord.from_syllables(two_free, [("a", 2), ("b", -1)])
        x = PiWord.from_syllables(two_free, [("b", 3), ("a", 1)])
        assert pi_word_is_conjugate(u, x * u * x.inverse())

    def test_shifted_commutator_conjugate(self, two_free):
        za = PiWord.generator(two_free, "a")
        zb = PiWord.generator(two_free, "b")
        u = za * zb * za.inverse() * zb.inverse()
        v = zb * za.inverse() * zb.inverse() * za
        assert pi_word_is_conjugate(u, v)

    def test_distinct_generators_not_conjugate(self, two_free):
        za = PiWord.generator(two_free, "a")
        zb = PiWord.generator(two_free, "b")
        assert not pi_word_is_conjugate(za, zb)

    def test_conjugacy_matches_brute_force(self, two_free):
        """Exhaustive conjugation check over short words in two orbits."""
        reps = ("a", "b")
        pool = [PiWord.identity(two_free)]
        for length in (1, 2, 3):
            for combo in itertools.product(reps, repeat=length):
                for exps in itertools.product((-1, 1, 2), repeat=length):
                    pool.append(
                        PiWord.from_syllables(two_free, list(zip(combo, exps)))
                    )
        conjugators = [
            PiWord.from_syllables(two_free, list(zip(combo, exps)))
            for length in range(4)
            for combo in itertools.product(reps, repeat=length)
            for exps in itertools.product((-2, -1, 1, 2), repeat=length)
        ]
        words = pool[:40]
        for u in words[:15]:
            for v in words[:15]:
                brute = any(g.inverse() * u * g == v for g in conjugators)
                smart = pi_word_is_conjugate(u, v)
                if brute:
                    assert smart
                if smart and u.cyclic_reduction().syllables:
                    assert brute

    def test_abelianize_commutator(self, two_free):
        za = PiWord.generator(two_free, "a")
        zb = PiWord.generator(two_free, "b")
        assert (za * zb * za.inverse() * zb.inverse()).abelianized().is_zero()

    def test_abelianize_square(self, two_free):
        za = PiWord.generator(two_free, "a")
        assert (za * za).abelianized() == PiElement.make(two_free, {"a": 2})

    def test_abelianize_empty(self, two_free):
        assert PiWord.identity(two_free).abelianized().is_zero()

    def test_conjugates_share_cyclic_key(self, two_free):
        u = PiWord.from_syllables(two_free, [("a", 2), ("b", -1), ("a", 1)])
        for g_syl in ([("b", 1)], [("a", -2), ("b", 3)], []):
            g = PiWord.from_syllables(two_free, g_syl)
            assert (g.inverse() * u * g).cyclic_key() == u.cyclic_key()


    def test_reductions_match_old_merge_loops(self, two_free, mixed):
        """One reduction loop gives the old generator, product and cyclic
        reduction, each written out in ``_gamma_oracle``."""
        fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        rng = random.Random(24)
        for ground in (two_free, mixed, fixed):
            for _ in range(300):
                syl = [
                    (rng.choice(ground.symbols), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 8))
                ]
                parts = [_gamma_oracle.generator(ground, a, n) for a, n in syl]
                expected = ()
                for part in parts:
                    expected = _gamma_oracle.product(ground, expected, part)
                u = PiWord.from_syllables(ground, syl)
                assert [PiWord.generator(ground, a, n).syllables for a, n in syl] == parts
                assert u.syllables == expected
                v = PiWord.from_syllables(ground, syl[::-1])
                assert (u * v).syllables == _gamma_oracle.product(ground, u.syllables, v.syllables)
                assert u.cyclic_reduction().syllables == _gamma_oracle.cyclic_reduction(
                    ground, u.syllables
                )


class TestPhiSpec:
    def test_relation_maps_to_zero(self, two_free):
        phi = PhiSpec.rationals(two_free, {"a": 1, "b": 5})
        x = PiElement.of_letter(two_free, "a") + PiElement.of_letter(two_free, "A")
        assert phi.apply(x) == 0

    def test_plus_minus_identification(self, pm):
        phi = PhiSpec.rationals(pm, {"+": 1})
        five = PiElement.of_letter(pm, "+").scaled(5)
        assert phi.apply(five) == 5
        assert phi.apply(PiElement.of_letter(pm, "-")) == -1

    def test_gf2_torsion(self, mixed):
        phi = PhiSpec.prime_field(mixed, 2, {"a": 1, "c": 1})
        c = PiElement.of_letter(mixed, "c")
        assert phi.apply(c + c) == 0
        assert phi.apply(c) == 1

    def test_prime_field_rejects_non_primes(self, pm):
        """Primality is decided in integers, so a modulus past float range
        is rejected like any other composite, not by an OverflowError."""
        for p in (-3, 0, 1, 4, 9, 10**400):
            with pytest.raises(PhiSpecError, match="is not prime"):
                PhiSpec.prime_field(pm, p, {})

    def test_rational_phi_rejected_on_fixed_point(self, mixed):
        with pytest.raises(PhiSpecError):
            PhiSpec.rationals(mixed, {"c": 1})

    def test_weights_agree_with_apply(self, two_free, mixed):
        rng = random.Random(61)
        maps = (
            (two_free, PhiSpec.rationals(two_free, {"a": 5, "b": -3})),
            (two_free, PhiSpec.prime_field(two_free, 3, {"a": 1, "b": 2})),
            (mixed, PhiSpec.prime_field(mixed, 2, {"a": 1, "c": 1})),
            (mixed, PhiSpec.rationals(mixed, {"a": 2})),
        )
        for ground, phi in maps:
            weights = phi.weights(ground)
            for _ in range(20):
                x = random_pi_element(rng, ground)
                value = sum(w * c for w, c in zip(weights, x.coords))
                assert (value % phi.prime if phi.prime else value) == phi.apply(x)

    @pytest.mark.parametrize("prime", (0, 5))
    @pytest.mark.parametrize(
        "value", (Fraction(1, 2), Fraction(2), 1.5, 0.1, 2.0, "3", None), ids=repr
    )
    def test_non_integer_values_rejected(self, prime, value):
        """A value that is not an integer is refused where the map is
        built, naming its representative, over Q and over GF(p) alike."""
        ground = InvolutiveAlphabet.fixed_point_free(("a",), ("x",))
        message = f"value at 'a' must be an integer, got {value!r}"
        with pytest.raises(PhiSpecError) as caught:
            if prime:
                PhiSpec.prime_field(ground, prime, {"a": value})
            else:
                PhiSpec.rationals(ground, {"a": value})
        assert str(caught.value) == message

    def test_bool_value_reads_as_one(self, two_free):
        for phi in (
            PhiSpec.rationals(two_free, {"a": True}),
            PhiSpec.prime_field(two_free, 5, {"a": True}),
        ):
            assert phi.values == (("a", 1), ("b", 0)) and phi.label().endswith("(a=1,b=0)")
            assert all(type(v) is int for _, v in phi.values)

    def test_constructor_checks_prime_and_values(self, two_free):
        """A map made without ``_build``, by ``replace`` or the bare
        constructor, is still checked for what needs no alphabet: the
        prime, and integer values."""
        phi = PhiSpec.rationals(two_free, {"a": 1})
        with pytest.raises(PhiSpecError, match="value at 'a' must be an integer, got 0.5"):
            phi.replace(values=(("a", 0.5),))
        for prime in (4, 1, -3):
            with pytest.raises(PhiSpecError, match=f"{prime} is not prime"):
                PhiSpec(prime, (("a", 1), ("b", 0)))
        assert phi.replace(prime=5).label() == "phi[GF(5)](a=1,b=0)"

    def test_non_representative_keys_rejected(self, two_free, mixed):
        for key in ("A", "q"):
            with pytest.raises(PhiSpecError):
                PhiSpec.rationals(two_free, {key: 1})
            with pytest.raises(PhiSpecError):
                PhiSpec.prime_field(mixed, 3, {key: 1})


class TestSparseOracle:
    """``PiElement`` against the sparse ``(free, torsion)`` arithmetic it
    replaced (tests/_pairing_oracle.py)."""

    @staticmethod
    def grounds(two_free, mixed):
        fixed = InvolutiveAlphabet.build(("c", "d"), {"c": "c", "d": "d"})
        # fixed points declared before and after the free orbit
        interleaved = InvolutiveAlphabet.build(
            ("c", "a", "A", "d"), {"a": "A", "A": "a", "c": "c", "d": "d"}
        )
        return (two_free, fixed, mixed, interleaved)

    @staticmethod
    def random_args(rng, ground):
        free = {rep: rng.randint(-3, 3) for rep in ground.free_reps() if rng.random() < 0.7}
        fixed = ground.fixed_reps()
        torsion = [rng.choice(fixed) for _ in range(rng.randint(0, 3))] if fixed else []
        return free, torsion

    def test_operations_agree(self, two_free, mixed):
        rng = random.Random(62)
        for ground in self.grounds(two_free, mixed):
            values = {}
            for _ in range(60):
                args_x, args_y = self.random_args(rng, ground), self.random_args(rng, ground)
                x, y = PiElement.make(ground, *args_x), PiElement.make(ground, *args_y)
                sx, sy = oracle.sparse_make(ground, *args_x), oracle.sparse_make(ground, *args_y)
                k = rng.randint(-3, 3)
                pairs = (
                    (x, sx),
                    (x + y, oracle.sparse_add(ground, sx, sy)),
                    (-x, oracle.sparse_neg(ground, sx)),
                    (x - y, oracle.sparse_sub(ground, sx, sy)),
                    (x.scaled(k), oracle.sparse_scaled(ground, sx, k)),
                )
                for value, sparse in pairs:
                    assert (value.free, value.torsion) == sparse
                    assert value.is_zero() == (sparse == ((), ()))
                    for suffix in (False, True):
                        assert value.format(torsion_suffix=suffix) == oracle.sparse_format(
                            ground, sparse, suffix
                        )
                    values[value] = sparse
                assert (x == y) == (sx == sy)
            for symbol in ground.symbols:
                value = PiElement.of_letter(ground, symbol)
                assert (value.free, value.torsion) == oracle.sparse_of_letter(ground, symbol)
            # equal values hash alike and unequal ones stay apart
            assert len(set(values.values())) == len(values)
            assert all(PiElement.make(ground, dict(s[0]), s[1]) in values for s in values.values())

    def test_apply_agrees(self, two_free, mixed):
        rng = random.Random(63)
        for ground in self.grounds(two_free, mixed):
            free, fixed = ground.free_reps(), ground.fixed_reps()
            phis = (
                PhiSpec.rationals(ground, {r: rng.randint(-6, 6) for r in free}),
                PhiSpec.prime_field(ground, 2, {r: rng.randint(0, 1) for r in free + fixed}),
                PhiSpec.prime_field(ground, 3, {r: rng.randint(0, 2) for r in free}),
            )
            for _ in range(40):
                args = self.random_args(rng, ground)
                x, sx = PiElement.make(ground, *args), oracle.sparse_make(ground, *args)
                for phi in phis:
                    assert phi.apply(x) == oracle.sparse_apply(phi, sx)


def value_samples(mixed, pm, word_factory):
    """One value of every value type, with a field to change and a new
    value for it that the type accepts."""
    w = word_factory(mixed, "ABAB", A="a", B="A")
    pairing = pairing_of_nanoword(w)
    table = classify_words([w])
    search = bounded_bfs(w, None, Caps(bfs_nodes=5))
    graph = ribbon_graph_of(word_factory(pm, "ABAB", A="+", B="+"))
    move = Move("H1", (0,))
    samples = [
        (mixed, "pairs", ()),
        (PiElement.of_letter(mixed, "a"), "coords", (0, 1)),
        (PiWord.generator(mixed, "a"), "syllables", (("c", 1),)),
        (PhiSpec.rationals(mixed, {"a": 1}), "prime", 3),
        (w, "proj", ("A", "a")),
        (w.to_phrase(), "words", ((0, 1), (0, 1))),
        (word_factory(mixed, "ABBA", A="a", B="a").to_phrase().symmetry_witness(), "epsilon", ()),
        (Caps(), "bfs_nodes", 10),
        (move, "inverse", True),
        (Metamorphosis((move,)), "moves", ()),
        # a search's reached keys are a view of its dict, which no hash takes
        (search.replace(reached=frozenset(search.reached)), "explored", 0),
        (invariant_record(w), "phis", ()),
        (SliceVerdict(NOT_SLICE, "gamma"), "obstruction", "u"),
        (table.rows[0], "component", 1),
        (table, "rows", ()),
        (SuiteResult("sandwich", True, 3), "detail", "late"),
        (BridgeReport(1, 0, 0, None), "violations", 1),
        (pairing, "names", ("X", "Y")),
        (Genus(2), "twice", 0),
        (OrbitPoly(FREE, ()), "kind", FIXED),
        (u_polynomial(pairing), "entries", ()),
        (WeakVector(((0, 1),), (0,)), "s_coeffs", (1,)),
        (TupleSpace((pairing,)), "pairings", (pairing, pairing)),
        (parse_input("alphabet: a x\ntau: a<->x\nword: A A\nproj: A=a\n"), "items", ()),
        (graph, "faces", ()),
        (surface_stats(graph), "genus", 5),
    ]
    return {type(value).__name__: (value, name, new) for value, name, new in samples}


VALUE_TYPES = sorted(cls.__name__ for cls in Value.__subclasses__())


def test_every_value_type_sampled(mixed, pm, word_factory):
    assert sorted(value_samples(mixed, pm, word_factory)) == VALUE_TYPES


@pytest.mark.parametrize("type_name", VALUE_TYPES)
def test_value_semantics(mixed, pm, word_factory, type_name):
    """Values compare and hash by their fields, refuse assignment and
    deletion, and print as ``Name(field=value, ...)``."""
    value, name, new = value_samples(mixed, pm, word_factory)[type_name]
    old = getattr(value, name)
    copy = value.replace()
    assert copy is not value and copy == value and hash(copy) == hash(value)
    changed = value.replace(**{name: new})
    assert changed != value and getattr(changed, name) == new
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == old and value == copy
    text = repr(value)
    assert text.startswith(f"{type_name}(") and f"{name}={old!r}" in text


def test_value_repr_pinned():
    assert repr(Genus(twice=2)) == "Genus(twice=2)"
    assert repr(Move("H1", (0,))) == "Move(kind='H1', data=(0,), inverse=False)"

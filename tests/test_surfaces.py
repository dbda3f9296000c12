import itertools
import random

import pytest

from nanocob.algebra import InvolutiveAlphabet, PhiSpec
from nanocob.explorer import enumerate_nanowords, random_nanoword
from nanocob.intlinalg import rational_rank
from nanocob.pairings import genus, pairing_of_nanoword, tautological_filling
from nanocob.surfaces import (
    genus_rank_check,
    ribbon_graph_of,
    surface_stats,
    tautological_gram_rank,
)
from nanocob.words import Nanoword, WordError

from _pairing_oracle import evaluate
from _surface_oracle import ribbon_graph_of as slot_ribbon_graph_of


class TestRibbonGraph:
    def test_empty_word_is_annulus(self, pm):
        stats = surface_stats(ribbon_graph_of(Nanoword.empty(pm)))
        assert (stats.genus, stats.boundary_components, stats.euler) == (0, 2, 0)

    def test_doubled_letter_counts(self, pm, word_factory):
        g = ribbon_graph_of(word_factory(pm, "AA", A="+"))
        assert g.num_vertices == 1 and g.num_edges == 2

    def test_linked_pair_counts(self, pm, word_factory):
        g = ribbon_graph_of(word_factory(pm, "ABAB", A="+", B="+"))
        assert g.num_vertices == 2 and g.num_edges == 4

    def test_wrong_ground_alphabet_rejected(self, two_free, word_factory):
        w = word_factory(two_free, "AA", A="a")
        with pytest.raises(WordError):
            ribbon_graph_of(w)

    def test_euler_is_minus_half_length(self, pm):
        rng = random.Random(50)
        for _ in range(20):
            w = random_nanoword(rng, pm, rng.randint(1, 5))
            stats = surface_stats(ribbon_graph_of(w))
            assert stats.euler == -w.length // 2
            assert stats.boundary_components >= 1
            assert stats.genus >= 0


class TestStats:
    def test_doubled_letter_genus_zero(self, pm, word_factory):
        for sign in "+-":
            w = word_factory(pm, "AA", A=sign)
            stats = surface_stats(ribbon_graph_of(w))
            assert stats.genus == 0
            assert stats.boundary_components == 3
            assert genus_rank_check(w)

    def test_linked_pair_is_torus_like(self, pm, word_factory):
        w = word_factory(pm, "ABAB", A="+", B="+")
        stats = surface_stats(ribbon_graph_of(w))
        assert stats.genus == 1
        assert tautological_gram_rank(w) == 2

    def test_linked_pair_rank_matrix(self, pm, word_factory):
        # doubled-genus via the known 3x3 integer matrix of the linked pair
        from nanocob.intlinalg import integer_rank

        assert integer_rank([[0, -1, 1], [1, 0, 2], [-1, -2, 0]]) == 2


class TestGenusRankIdentity:
    def test_exhaustive_short_words(self, pm):
        total = 0
        for n in range(4):
            for w in enumerate_nanowords(n, pm):
                assert genus_rank_check(w), str(w)
                total += 1
        assert total == 1 + 2 + 3 * 4 + 15 * 8

    def test_empty_word(self, pm):
        assert genus_rank_check(Nanoword.empty(pm))

    def test_sign_reversal_preserves_genus(self, pm):
        rng = random.Random(51)
        swap = {"+": "-", "-": "+"}
        for _ in range(25):
            w = random_nanoword(rng, pm, rng.randint(1, 5))
            flipped = w.push_forward(swap, pm)
            a = surface_stats(ribbon_graph_of(w)).genus
            b = surface_stats(ribbon_graph_of(flipped)).genus
            assert a == b

    def test_minimum_genus_bounded_by_surface(self, pm):
        rng = random.Random(52)
        phi = PhiSpec.rationals(pm, {"+": 1})
        for _ in range(25):
            w = random_nanoword(rng, pm, rng.randint(1, 5))
            sigma_twice = genus(pairing_of_nanoword(w), phi).twice
            assert sigma_twice // 2 <= surface_stats(ribbon_graph_of(w)).genus

    def test_gram_rank_matches_evaluate_route(self, pm):
        """The Gram rank through the scalar pairing matrix against the
        route through the sparse ``evaluate`` oracle and ``rational_rank``."""
        phi = PhiSpec.rationals(pm, {"+": 1})
        for n in range(5):
            for w in enumerate_nanowords(n, pm):
                p = pairing_of_nanoword(w)
                filling = tautological_filling(p)
                gram = [[phi.apply(evaluate(p, x, y)) for y in filling] for x in filling]
                assert tautological_gram_rank(w) == rational_rank(gram)


class TestSurfaceOracle:
    def test_permutation_matches_string_slot_route(self, pm):
        """The half-edge permutation against the string-slot trace, on
        every word of half-length at most 4 and on seeded longer words."""
        rng = random.Random(53)
        words = [w for n in range(5) for w in enumerate_nanowords(n, pm)]
        words += [random_nanoword(rng, pm, rng.randint(5, 7)) for _ in range(60)]
        for w in words:
            graph, oracle = ribbon_graph_of(w), slot_ribbon_graph_of(w)
            assert (graph.num_vertices, graph.num_edges) == (
                oracle.num_vertices,
                oracle.num_edges,
            ), str(w)
            assert surface_stats(graph) == surface_stats(oracle), str(w)

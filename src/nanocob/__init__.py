"""Nanoword cobordism toolkit.

Words in which every letter occurs twice, over an alphabet with
involution; the moves that generate cobordism (homotopy moves,
surgeries, bridges, shifts); and the invariant stack that obstructs it
(the free-product value, pairings with filling enumeration, the
per-orbit polynomial, genera, surface cross-checks).
"""

from .algebra import (
    InvolutiveAlphabet,
    PhiSpec,
    PiElement,
    PiWord,
    pi_word_is_conjugate,
)
from .moves import (
    Caps,
    Factor,
    Metamorphosis,
    Move,
    apply_h3,
    apply_surgery,
    bounded_bfs,
    enumerate_bridges,
    enumerate_even_symmetric_factors,
    find_h1_sites,
    find_h2_sites,
    find_h3_sites,
    validate_bridge,
)
from .pairings import (
    AlphaPairing,
    Genus,
    UPoly,
    annihilating_fillings,
    are_cobordant,
    are_isomorphic,
    count_fillings,
    covering,
    enumerate_fillings,
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
    tuple_genus,
    u_degree,
    u_polynomial,
    u_polynomial_of_nanoword,
    verify_surgery_filling,
    weakly_cobordant,
)
from .surfaces import genus_rank_check, ribbon_graph_of, surface_stats
from .words import (
    Nanophrase,
    Nanoword,
    SymmetryWitness,
)
from .explorer import (
    classify,
    classify_words,
    enumerate_nanowords,
    invariant_record,
    length_norm_bounds,
    slice_status,
)

__version__ = "0.1.0"

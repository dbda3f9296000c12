"""Thickened Gauss diagrams of nanowords over the two-symbol alphabet.

A nanoword over {+,-} determines a 4-valent graph (one vertex per
letter, one edge per cyclically-consecutive pair of entries) with a
rotation system read off the letter signs.  Thickening gives a compact
oriented surface.  The graph is stored as one permutation of its
half-edges, and the boundary circles are the cycles of that
permutation; the genus follows from the Euler count.  The doubled-genus
equals the rank of the tautological Gram matrix of the word's pairing,
which is the module's cross-check.
"""

from __future__ import annotations

from .algebra import InvolutiveAlphabet, PhiSpec, Value
from .intlinalg import integer_rank
from .pairings import pairing_of_nanoword
from .words import Nanoword, WordError

_SIGNS = InvolutiveAlphabet.plus_minus()


def _require_signs(w: Nanoword) -> None:
    if w.ground != _SIGNS:
        raise WordError("ribbon graphs need the {+,-} ground alphabet")


class RibbonGraph(Value):
    """The thickened diagram as a permutation of half-edges.

    Half-edge ``2t`` enters the vertex at word position ``t`` and
    ``2t + 1`` leaves it; edge ``t`` joins ``2t + 1`` to
    ``2((t + 1) % n)``.  ``faces`` crosses a half-edge's edge and turns
    once in the rotation at the far end, so its cycles are the boundary
    circles.
    """

    def __init__(self, num_vertices: int, num_edges: int, faces: tuple[int, ...]):
        fields = self.__dict__
        fields["num_vertices"] = num_vertices
        fields["num_edges"] = num_edges
        fields["faces"] = faces

    def boundary_components(self) -> int:
        if not self.faces:
            return 2  # the empty word thickens to an annulus
        seen = [False] * len(self.faces)
        cycles = 0
        for start in range(len(self.faces)):
            if seen[start]:
                continue
            cycles += 1
            h = start
            while not seen[h]:
                seen[h] = True
                h = self.faces[h]
        return cycles


class SurfaceStats(Value):
    def __init__(self, euler: int, boundary_components: int, genus: int):
        fields = self.__dict__
        fields["euler"] = euler
        fields["boundary_components"] = boundary_components
        fields["genus"] = genus


def ribbon_graph_of(w: Nanoword) -> RibbonGraph:
    _require_signs(w)
    size = 2 * w.length
    rotation = [0] * size
    first: dict[int, int] = {}
    for q, x in enumerate(w.seq):
        p = first.setdefault(x, q)
        if p == q:
            continue
        if w.proj[x] == "+":
            cycle = (2 * p, 2 * q, 2 * p + 1, 2 * q + 1)
        else:
            cycle = (2 * p, 2 * q + 1, 2 * p + 1, 2 * q)
        for i in range(4):
            rotation[cycle[i - 1]] = cycle[i]
    # the other end of h's edge is h + 1 when h leaves, h - 1 when it enters
    faces = tuple(
        rotation[(h + 1 if h % 2 else h - 1) % size] for h in range(size)
    )
    return RibbonGraph(w.num_letters, w.length, faces)


def surface_stats(graph: RibbonGraph) -> SurfaceStats:
    euler = graph.num_vertices - graph.num_edges
    boundary = graph.boundary_components()
    genus2 = 2 - boundary - euler
    if genus2 < 0 or genus2 % 2:
        raise WordError("boundary trace produced an impossible genus")
    return SurfaceStats(euler, boundary, genus2 // 2)


def phi_zero(ground: InvolutiveAlphabet) -> PhiSpec:
    """The identification of the {+,-} value group with the integers."""
    return PhiSpec.rationals(ground, {"+": 1})


def tautological_gram_rank(w: Nanoword) -> int:
    _require_signs(w)
    # The tautological filling is the basis s, A, B, ..., so its Gram
    # matrix is the pairing table itself; over {+,-} a value is one
    # integer coordinate, and that integer is its image under phi_zero.
    p = pairing_of_nanoword(w)
    return integer_rank([[v for (v,) in row] for row in p.coords])


def genus_rank_check(w: Nanoword) -> bool:
    """Boundary-traced genus against the Gram-matrix rank of the
    tautological filling: the rank must be exactly twice the genus."""
    stats = surface_stats(ribbon_graph_of(w))
    return tautological_gram_rank(w) == 2 * stats.genus

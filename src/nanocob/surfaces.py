"""Thickened Gauss diagrams of nanowords over the two-symbol alphabet.

A nanoword over {+,-} determines a 4-valent graph (one vertex per
letter, one edge per cyclically-consecutive pair of entries) with a
rotation system read off the letter signs.  Thickening gives a compact
oriented surface; its boundary circles are traced combinatorially and
the genus follows from the Euler count.  The doubled-genus equals the
rank of the tautological Gram matrix of the word's pairing, which is
the module's cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import InvolutiveAlphabet, PhiSpec
from .pairings import genus_of_filling, pairing_of_nanoword, tautological_filling
from .words import Nanoword, WordError

_ROT_PLUS = ("first_in", "second_in", "first_out", "second_out")
_ROT_MINUS = ("first_in", "second_out", "first_out", "second_in")


def _require_signs(w: Nanoword) -> None:
    pm = InvolutiveAlphabet.plus_minus()
    if w.ground != pm:
        raise WordError("ribbon graphs need the {+,-} ground alphabet")


@dataclass(frozen=True)
class RibbonGraph:
    """Rotation-system presentation of the thickened diagram.

    ``attach`` maps (edge, end) to its vertex and slot; ends are 0 for
    the tail (outgoing entry) and 1 for the head (incoming entry).
    ``empty`` marks the annulus of the empty word.
    """

    num_vertices: int
    num_edges: int
    signs: tuple[str, ...]
    attach: tuple[tuple[tuple[int, str], tuple[int, str]], ...]
    empty: bool = False

    def rotation_next(self, vertex: int, slot: str) -> str:
        order = _ROT_PLUS if self.signs[vertex] == "+" else _ROT_MINUS
        return order[(order.index(slot) + 1) % 4]

    def boundary_components(self) -> int:
        if self.empty:
            return 2
        at_slot = {}
        for e, (tail, head) in enumerate(self.attach):
            at_slot[tail] = (e, 0)
            at_slot[head] = (e, 1)
        location = {}
        for e, (tail, head) in enumerate(self.attach):
            location[(e, 0)] = tail
            location[(e, 1)] = head
        seen = set()
        faces = 0
        for start in location:
            if start in seen:
                continue
            faces += 1
            current = start
            while current not in seen:
                seen.add(current)
                e, end = current
                far = (e, 1 - end)
                vertex, slot = location[far]
                current = at_slot[(vertex, self.rotation_next(vertex, slot))]
        return faces


@dataclass(frozen=True)
class SurfaceStats:
    euler: int
    boundary_components: int
    genus: int

    def __post_init__(self):
        if self.euler != 2 - 2 * self.genus - self.boundary_components:
            raise WordError("inconsistent surface statistics")


def ribbon_graph_of(w: Nanoword) -> RibbonGraph:
    _require_signs(w)
    n = w.length
    if n == 0:
        return RibbonGraph(0, 0, (), (), empty=True)
    first_seen: dict[int, int] = {}
    passage = []  # per position: is this the first or second entry
    for t, x in enumerate(w.seq):
        if x not in first_seen:
            first_seen[x] = t
            passage.append("first")
        else:
            passage.append("second")
    attach = []
    for t in range(n):
        u = (t + 1) % n
        tail = (w.seq[t], f"{passage[t]}_out")
        head = (w.seq[u], f"{passage[u]}_in")
        attach.append((tail, head))
    return RibbonGraph(
        w.num_letters,
        n,
        tuple(w.proj),
        tuple(attach),
    )


def surface_stats(graph: RibbonGraph) -> SurfaceStats:
    if graph.empty:
        return SurfaceStats(0, 2, 0)
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
    p = pairing_of_nanoword(w)
    return genus_of_filling(p, phi_zero(w.ground), tautological_filling(p)).twice


def genus_rank_check(w: Nanoword) -> bool:
    """Boundary-traced genus against the Gram-matrix rank of the
    tautological filling: the rank must be exactly twice the genus."""
    stats = surface_stats(ribbon_graph_of(w))
    return tautological_gram_rank(w) == 2 * stats.genus

"""The string-slot ribbon-graph route that the half-edge permutation
replaced, kept as a test oracle.

Each edge end is attached to a named slot (``first_in``, ``second_out``,
...) of its vertex, the rotation at a vertex is a tuple of slot names
chosen by the letter's sign, and the boundary trace walks two dicts
between edge ends and slots.
"""

from dataclasses import dataclass

from nanocob.algebra import InvolutiveAlphabet
from nanocob.words import Nanoword, WordError

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

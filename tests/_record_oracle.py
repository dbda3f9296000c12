"""The eager invariant record that the lazy ``explorer.InvariantRecord``
replaced, kept as a test oracle.

It computes every invariant of the word up front: the pairing, gamma and
its cyclic class, the u-polynomial, the genus under every coefficient map
(one filling search each, also when the pairing is hyperbolic),
hyperbolicity and r.  ``explorer.obstruction`` and
``explorer.slice_verdict`` read either record type field by field.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from nanocob.algebra import PhiSpec, PiElement, PiWord
from nanocob.pairings import (
    UPoly,
    genus,
    is_hyperbolic,
    pairing_of_nanoword,
    phi_sign_battery,
    r_of,
    u_polynomial,
)
from nanocob.words import Nanoword


@dataclass(frozen=True)
class InvariantRecord:
    word: Nanoword
    gamma: PiWord
    gamma_cyclic: tuple
    u: UPoly
    genera: tuple[tuple[str, int], ...]
    hyperbolic: bool
    r: PiElement

    def cobordism_key(self) -> tuple:
        return (
            self.gamma.syllables,
            tuple((rep, poly.terms) for rep, poly in self.u.entries),
            self.genera,
            self.hyperbolic,
            self.r.coords,
        )


def invariant_record(
    w: Nanoword, phis: Optional[Sequence[PhiSpec]] = None
) -> InvariantRecord:
    phis = phi_sign_battery(w.ground) if phis is None else tuple(phis)
    p = pairing_of_nanoword(w)
    gamma = w.gamma()
    return InvariantRecord(
        word=w.canonical_form(),
        gamma=gamma,
        gamma_cyclic=gamma.cyclic_key(),
        u=u_polynomial(p),
        genera=tuple((phi.label(), genus(p, phi).twice) for phi in phis),
        hyperbolic=is_hyperbolic(p) is not None,
        r=r_of(p),
    )

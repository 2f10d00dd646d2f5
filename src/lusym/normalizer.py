"""Normalizer structure: spin-flip masks stabilizing the support, plus
per-qubit balance defects.

The normalizer of the maximal diagonal group inside the locally diagonalizable
symmetries is the full diagonal torus extended by a finite group of bit-flip
masks. A mask belongs to it when flipping maps the support onto itself and
conjugation (negating the masked phis) maps the solved group onto itself. The
second condition follows from the first: the solved group is the set of x with
M x integral, M holding one sign row per support label, and conjugating by a
mask that stabilizes the support only permutes the rows of M. The flips are
therefore exactly the support-stabilizing masks.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalError
from .exactlinalg import gf2_generators
from .states import PureState, Support, label_int
from .symmetry import DiagonalSymmetryGroup, QubitActionProfile, qubit_action_profile


class FlipGroup(NamedTuple):
    """A group of bit-flip masks under XOR, with a GF(2) generating set."""

    masks: tuple[str, ...]
    generators: tuple[str, ...]


def _as_flip_group(values: list[int], n: int) -> FlipGroup:
    """The flip group of n-bit masks given by their integer values."""
    ordered = sorted(set(values))
    gens = gf2_generators(ordered)
    # the masks lie in the span of gens, which has 2^r members: they are closed
    # under xor exactly when they are all of it
    if len(ordered) != 1 << len(gens):
        raise InternalError(f"flip masks not closed under xor: {len(ordered)} masks of GF(2) rank {len(gens)}")
    return FlipGroup(
        masks=tuple(f"{x:0{n}b}" for x in ordered),
        generators=tuple(f"{x:0{n}b}" for x in gens),
    )


def support_stabilizer_masks(support: Support) -> FlipGroup:
    """All masks t with support XOR t = support, as a group.

    Candidates are the XOR differences against one fixed label: any stabilizing
    mask must send that label somewhere inside the support.
    """
    values = [label_int(lab) for lab in support.labels]
    value_set = set(values)
    base = values[0]
    kept = []
    for other in values:
        mask = base ^ other
        if all(v ^ mask in value_set for v in values):
            kept.append(mask)
    return _as_flip_group(kept, support.n)


class NormalizerDescription(NamedTuple):
    """Diagonal torus times spin-flip group, with the non-triviality flag.

    The torus part is always the full diagonal group, so only the flips are
    stored. They are exactly the masks that stabilize the support, since such
    a mask permutes the sign rows defining the solved group and so conjugates
    it onto itself.
    """

    flips: FlipGroup
    profile: QubitActionProfile

    @property
    def assumption_ok(self) -> bool:
        """False when the solved group acts only by signs on some qubit, in
        which case the normalizer may be strictly larger than described."""
        return not any(self.profile.trivial)


def compute_normalizer(support: Support, group: DiagonalSymmetryGroup) -> NormalizerDescription:
    """Normalizer of `group`, the solved symmetry group of `support`."""
    return NormalizerDescription(
        flips=support_stabilizer_masks(support),
        profile=qubit_action_profile(support, group),
    )


def balance_defects(psi: PureState) -> tuple[float, ...]:
    """Per-qubit balance defects: entry k-1 is sum_s (-1)^{s_k} |c_s|^2, the
    k-th component of the moment map of the diagonal torus. It vanishes exactly
    when <0|rho_k|0> = <1|rho_k|1> for qubit k's reduced state rho_k, which may
    keep off-diagonal terms: qubit 2 of |0>|+> has defect 0 but a pure rho_2.

    One pass over the labels in support order feeds two sums per qubit, over
    bit k = 0 and over bit k = 1, each starting from 0. Their difference is
    bit for bit the difference of the two sums taken separately; one signed
    running sum would round differently.
    """
    plus = [0] * psi.n
    minus = [0] * psi.n
    for label, c in psi.amplitudes.items():
        weight = abs(c) ** 2
        for k, bit in enumerate(label):
            if bit == "0":
                plus[k] += weight
            else:
                minus[k] += weight
    return tuple(p - m for p, m in zip(plus, minus))

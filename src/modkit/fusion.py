"""Integer fusion tensors N_{i,j}^k with unit and duality data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datum import DegeneracyError, orbit_reps
from .matrix import signed_permutation


@dataclass(frozen=True)
class FusionTensor:
    labels: tuple[str, ...]
    table: np.ndarray            # int64 (object past 2^63), table[i, j, k] = N_{i,j}^k
    unit: int
    duality: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if self.table.shape != (n, n, n):
            raise ValueError(f"tensor shape {self.table.shape} does not match {n} labels")


def tensor_duality(table: np.ndarray, unit: int) -> Optional[tuple[int, ...]]:
    """Read the duality involution off N_{i,j}^unit; None when it is not one.

    Quotient (integer) tensors carry -1 there when the dual of a
    representative lies in the other orbit, so the entry is allowed to be
    +-1; plain fusion tensors have +1 throughout.
    """
    sp = signed_permutation(table[:, :, unit])
    return None if sp is None else sp.perm


def quotient_constants(fusion: FusionTensor, eps: int,
                       reps: Optional[Sequence[int]] = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Structure constants N_{X,Y}^Z - N_{X,Y}^{eps (x) Z} on representatives:
    the fusion ring of the quotient by sVect^-, where eps has dimension -1.

    ``eps`` must be an invertible label whose tensoring is an involution of
    the labels without fixed points, else DegeneracyError; ``reps`` picks one
    label per orbit (defaults to the first of each orbit in label order, with
    the unit's orbit represented by the unit).  Returns the quotient tensor
    together with the representative index list it is indexed by.
    """
    act = epsilon_action_from_fusion(fusion, eps)
    if any(act[x] == x or act[act[x]] != x for x in range(len(act))):
        raise DegeneracyError(
            f"tensoring by {fusion.labels[eps]} is not a fixed-point-free involution")
    reps = orbit_reps(act, fusion.unit, reps)
    t = fusion.table
    out = t[np.ix_(reps, reps, reps)] - t[np.ix_(reps, reps, [act[z] for z in reps])]
    return out, tuple(reps)


def epsilon_action_from_fusion(fusion: FusionTensor, eps: int) -> tuple[int, ...]:
    """The label permutation X -> eps (x) X, read off the fusion tensor:
    N_{eps,X} must hold a single 1 in each row and in each column."""
    sp = signed_permutation(fusion.table[eps])
    if sp is None or -1 in sp.signs:
        raise DegeneracyError(f"label {fusion.labels[eps]} does not tensor invertibly")
    return sp.perm

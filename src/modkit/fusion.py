"""Integer fusion tensors N_{i,j}^k with unit and duality data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datum import orbit_reps


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
    col = table[:, :, unit]
    out = np.argmax(col != 0, axis=1)
    first = col[np.arange(len(col)), out]
    if (np.count_nonzero(col, axis=1) != 1).any() or (abs(first) != 1).any():
        return None
    out = tuple(out.tolist())
    return out if len(set(out)) == len(out) else None


def quotient_constants(fusion: FusionTensor, eps: int,
                       reps: Optional[Sequence[int]] = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Structure constants N_{X,Y}^Z - N_{X,Y}^{eps (x) Z} on representatives:
    the fusion ring of the quotient by sVect^-, where eps has dimension -1.

    ``eps`` must be an invertible label whose tensoring permutes the labels
    without fixed points; ``reps`` picks one label per orbit (defaults to the
    first of each orbit in label order, with the unit's orbit represented by
    the unit).  Returns the quotient tensor together with the representative
    index list it is indexed by.
    """
    act = epsilon_action_from_fusion(fusion, eps)
    reps = orbit_reps(act, fusion.unit, reps)
    t = fusion.table
    out = t[np.ix_(reps, reps, reps)] - t[np.ix_(reps, reps, [act[z] for z in reps])]
    return out, tuple(reps)


def epsilon_action_from_fusion(fusion: FusionTensor, eps: int) -> tuple[int, ...]:
    """The label permutation X -> eps (x) X, read off the fusion tensor: row
    X of N_{eps,X} must hold a single 1."""
    row = fusion.table[eps]
    act = np.argmax(row != 0, axis=1)
    if (np.count_nonzero(row, axis=1) != 1).any() or (row[np.arange(len(row)), act] != 1).any():
        raise ValueError(f"label {fusion.labels[eps]} does not tensor invertibly")
    return tuple(act.tolist())

import math
import time

import numpy as np
import pytest

from modkit import io
from modkit.datum import RawDatum
from modkit.families import (FamilyInstance, from_spec, pointed_cyclic,
                             pointed_fusion_tensor, taft_double, taft_fusion_tensor,
                             taft_J_indices)
from modkit.fusion import FusionTensor
from modkit.matrix import CycMatrix
from modkit.pipeline import PipelineResult, verify_raw

TAFT_RANGE = range(2, 9)

POINTED_GRID = [(n, a, k0)
                for n in (3, 5, 7, 9)
                for a in (1, 2)
                for k0 in (0, 1)
                if math.gcd(a, n) == 1]


class TimedResult:
    def __init__(self, result: PipelineResult, seconds: float):
        self.result = result
        self.seconds = seconds


@pytest.fixture(scope="session")
def taft_verified() -> dict[int, TimedResult]:
    """verify_raw on the full Taft datum, with the independent fusion oracle
    and the closed-form representative set, for every d in 2..8."""
    out = {}
    for d in TAFT_RANGE:
        raw = taft_double(d)
        oracle = taft_fusion_tensor(d)
        t0 = time.perf_counter()
        res = verify_raw(raw, fusion_oracle=oracle, reps=taft_J_indices(d))
        out[d] = TimedResult(res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def taft_instances() -> dict[int, FamilyInstance]:
    return {d: from_spec(f"taft:d={d}") for d in TAFT_RANGE}


@pytest.fixture(scope="session")
def pointed_verified() -> dict[tuple[int, int, int], PipelineResult]:
    out = {}
    for (n, a, k0) in POINTED_GRID:
        raw = pointed_cyclic(n, a, k0)
        out[(n, a, k0)] = verify_raw(raw, fusion_oracle=pointed_fusion_tensor(n))
    return out


def relabel(raw: RawDatum, perm: list[int]) -> RawDatum:
    """The same datum with label x moved to position perm[x]."""
    n = raw.size
    src = [0] * n
    for x, p in enumerate(perm):
        src[p] = x
    s = CycMatrix(n, n, [raw.s_matrix[src[i], src[j]] for i in range(n) for j in range(n)])
    signs = None if raw.duality_signs is None else tuple(raw.duality_signs[x] for x in src)
    return RawDatum(tuple(raw.labels[x] for x in src), perm[raw.unit], s,
                    tuple(raw.twists[x] for x in src), raw.kind,
                    tuple(perm[raw.duality[x]] for x in src), signs)


def galois_conjugate(raw: RawDatum, j: int) -> RawDatum:
    return RawDatum(raw.labels, raw.unit, raw.s_matrix.galois(j),
                    tuple(t.galois(j) for t in raw.twists), raw.kind, raw.duality,
                    raw.duality_signs)


def zero_global_dimension() -> dict:
    """A datum file whose dims are (1, i), so that the squared norms 1 and -1
    sum to 0: every structural check passes, and no world can be normalized."""
    one, i4 = {"conductor": 1, "coeffs": ["1"]}, {"conductor": 4, "coeffs": ["0", "1"]}
    return {"labels": ["a", "b"], "unit": 0, "kind": "raw-full",
            "S": {"rows": 2, "cols": 2, "entries": [[one, i4], [i4, one]]},
            "twists": [one, i4], "duality": [0, 1]}


def taft3_at_conductor(p: int) -> dict:
    """Taft d = 3 as a datum file with S[0,0] = 1 written at the prime
    conductor p, so that its products run at conductor 3p: a few kB of
    JSON (3,910 bytes at p = 401) asking for many large split tables."""
    obj = io.datum_to_json(taft_double(3))
    obj["S"]["entries"][0][0] = {"conductor": p, "coeffs": ["1"] + ["0"] * (p - 2)}
    return obj


def bad_taft3_oracles():
    """Taft d = 3 oracles, with the message each fails with, whose eps row
    does not give the quotient: all zero, and a permutation that fixes the
    unit and eps."""
    good = taft_fusion_tensor(3)
    eps, x = good.labels.index("(2,1)"), good.labels.index("(1,0)")
    fixed = good.table.copy()
    for z in (x, int(good.table[eps, x].argmax())):
        fixed[eps, z] = 0
        fixed[eps, z, z] = 1
    return {which: (FusionTensor(good.labels, table, good.unit, good.duality), message)
            for which, table, message in (
                ("zero", np.zeros_like(good.table), "label (2,1) does not tensor invertibly"),
                ("fixed-point", fixed, "tensoring by (2,1) is not a fixed-point-free involution"))}

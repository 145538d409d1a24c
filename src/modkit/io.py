"""JSON formats for scalars, matrices, datum files and reports.

Round trips are bit-exact: values are serialized in their canonical
power-basis form with rational coefficient strings ``p`` or ``p/q`` in
lowest terms.  Matrices are read and written as integer coefficient slices,
without a :class:`CycNum` per entry.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Union

import numpy as np

from .checks import CheckResult, VerificationReport
from .cyclotomic import CycNum
from .datum import KIND_BOLD, KIND_FULL, ModularDatum, RawDatum
from .kernel import impl as _K
from .matrix import CycMatrix, int_array

KIND_NORMALIZED = "normalized"


class FormatError(ValueError):
    pass


def _int(v: Any) -> int:
    """A JSON integer; floats, booleans and strings are refused, not truncated."""
    if type(v) is not int:
        raise FormatError(f"expected an integer, got {v!r}")
    return v


def _list(v: Any, *types: type) -> list:
    if not isinstance(v, list) or any(type(x) not in types for x in v):
        raise FormatError(f"expected a list of {'/'.join(t.__name__ for t in types)}, got {v!r}")
    return v


# ---------- coefficients ----------

_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def _ratio(c: Union[str, int]) -> tuple[int, int]:
    """A coefficient as ``(p, q)`` with ``q > 0``.  The canonical strings
    ``p`` and ``p/q`` that :func:`cyc_to_json` writes are read with ``int``;
    any other string is read by ``Fraction``, once its decimal exponent is
    known to be no larger than Python's limit on digits in an ``int`` string
    (``Fraction`` writes out 10**exponent)."""
    if type(c) is int:
        return c, 1
    m = _CANONICAL.fullmatch(c)
    if m is None:
        e = _EXPONENT.search(c)
        if e is not None:
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            digits = e[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise FormatError(f"decimal exponent in {c!r} exceeds {limit}")
        f = Fraction(c)
        return f.numerator, f.denominator
    q = 1 if m[2] is None else int(m[2])
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {c!r}")
    return int(m[1]), q


class _Ratios(dict):
    """:func:`_ratio` of each coefficient text, parsed once per read."""

    def __missing__(self, c):
        r = self[c] = _ratio(c)
        return r


def _ratio_text(v: int, den: int) -> str:
    """The coefficient ``v / den`` in lowest terms, as ``p`` or ``p/q``."""
    g = math.gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _scalar(obj: Any, ratios: _Ratios) -> tuple[int, list[tuple[int, int]]]:
    """The conductor and the ``(p, q)`` coefficients of a scalar object; the
    conductor is checked before any table of it is built."""
    n = _int(obj["conductor"])
    if n < 1:
        raise FormatError(f"conductor must be >= 1, got {n}")
    coeffs = [ratios[c] for c in _list(obj["coeffs"], str, int)]
    if len(coeffs) != _K.euler_phi(n):
        raise FormatError(f"need phi({n}) = {_K.euler_phi(n)} coordinates, got {len(coeffs)}")
    return n, coeffs


# ---------- scalars ----------

def cyc_to_json(x: CycNum) -> dict:
    return {"conductor": x.conductor,
            "coeffs": [_ratio_text(v, x.den) for v in x.num]}


def cyc_from_json(obj: dict) -> CycNum:
    try:
        n, coeffs = _scalar(obj, _Ratios())
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad scalar object: {exc}") from exc
    den = math.lcm(*(q for _, q in coeffs))
    return CycNum(n, tuple(p * (den // q) for p, q in coeffs), den)


# ---------- matrices ----------

def matrix_to_json(m: CycMatrix) -> dict:
    n, den, cols = m.conductor, m.den, m.cols
    flat = m.num.reshape(m.num.shape[0], m.rows * cols).T.tolist()
    entries = [{"conductor": n, "coeffs": [_ratio_text(v, den) for v in c]} for c in flat]
    return {"rows": m.rows, "cols": cols,
            "entries": [entries[i * cols:(i + 1) * cols] for i in range(m.rows)]}


def matrix_from_json(obj: dict) -> CycMatrix:
    """The matrix of a JSON object: ``entries`` is ``rows`` lists of ``cols``
    scalar objects.  The coefficients fill one ``(phi, rows, cols)`` array
    over the lcm of their denominators; each group of entries at a smaller
    conductor is lifted to the lcm of the conductors as a whole."""
    try:
        rows, cols = _int(obj["rows"]), _int(obj["cols"])
        grid = _list(obj["entries"], list)
        if len(grid) != rows or cols < 0 or any(len(r) != cols for r in grid):
            raise FormatError(f"entries must be {rows} lists of {cols} scalars")
        ratios = _Ratios()
        scalars = [_scalar(e, ratios) for r in grid for e in _list(r, dict)]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    groups: dict[int, list[int]] = {}
    for k, (m, _) in enumerate(scalars):
        groups.setdefault(m, []).append(k)
    n = math.lcm(*groups)
    den = math.lcm(*(q for _, q in ratios.values()))
    phi = _K.euler_phi(n)
    num = np.zeros((phi, rows * cols), dtype=np.int64)
    for m, where in groups.items():
        part = int_array([[p * (den // q) for p, q in scalars[k][1]] for k in where])
        part = CycMatrix.from_slices(m, part.T[:, None, :], 1).lift(n).num[:, 0, :]
        if part.dtype == object:
            num = num.astype(object)
        num[:, where] = part
    return CycMatrix.from_slices(n, num.reshape(phi, rows, cols), den)


# ---------- datum files ----------

def datum_to_json(datum: Union[RawDatum, ModularDatum]) -> dict:
    if isinstance(datum, ModularDatum):
        return {
            "labels": list(datum.labels),
            "unit": datum.unit,
            "conductor": datum.s_matrix.conductor,
            "kind": KIND_NORMALIZED,
            "S": matrix_to_json(datum.s_matrix),
            "T": [cyc_to_json(t) for t in datum.t_diag],
        }
    out = {
        "labels": list(datum.labels),
        "unit": datum.unit,
        "conductor": datum.s_matrix.conductor,
        "kind": datum.kind,
        "S": matrix_to_json(datum.s_matrix),
        "twists": [cyc_to_json(t) for t in datum.twists],
    }
    if datum.duality is not None:
        out["duality"] = list(datum.duality)
    if datum.duality_signs is not None:
        out["duality_signs"] = list(datum.duality_signs)
    return out


def datum_from_json(obj: dict) -> Union[RawDatum, ModularDatum]:
    try:
        labels = tuple(_list(obj["labels"], str))
        unit = _int(obj["unit"])
        kind = obj["kind"]
        s = matrix_from_json(obj["S"])
        if kind == KIND_NORMALIZED:
            if "T" not in obj:
                raise FormatError("normalized datum needs T")
            t = tuple(cyc_from_json(v) for v in obj["T"])
            return ModularDatum(labels, unit, s, t)
        if kind not in (KIND_FULL, KIND_BOLD):
            raise FormatError(f"unknown kind {kind!r}")
        if "twists" not in obj:
            raise FormatError("raw datum needs twists")
        twists = tuple(cyc_from_json(v) for v in obj["twists"])
        duality = tuple(_list(obj["duality"], int)) if "duality" in obj else None
        signs = tuple(_list(obj["duality_signs"], int)) if "duality_signs" in obj else None
        return RawDatum(labels, unit, s, twists, kind, duality, signs)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad datum object: {exc}") from exc


def save_datum(datum: Union[RawDatum, ModularDatum], path: str) -> None:
    text = json.dumps(datum_to_json(datum), indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_datum(path: str) -> Union[RawDatum, ModularDatum]:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:   # bad JSON or UTF-8, or nested too deep
            raise FormatError(f"not valid JSON: {exc}") from exc
    return datum_from_json(obj)


# ---------- reports ----------

def _jsonable(v: Any) -> Any:
    if isinstance(v, CycNum):
        return cyc_to_json(v)
    if isinstance(v, CycMatrix):
        return matrix_to_json(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def check_to_json(c: CheckResult) -> dict:
    return {"check": c.name, "status": c.status, "detail": c.detail,
            "witness": _jsonable(c.witness), "ms": round(c.ms, 3)}


def report_to_json(report: VerificationReport, classification: str | None = None) -> list[dict]:
    out = []
    if classification is not None:
        out.append({"check": "classification",
                    "status": "pass" if report.passed else "fail",
                    "detail": classification, "witness": None, "ms": 0.0})
    out.extend(check_to_json(c) for c in report.checks)
    return out


def render_report(entries: list[dict]) -> str:
    """Human-readable rendering of a report JSON list."""
    lines = []
    width = max((len(e["check"]) for e in entries), default=10)
    for e in entries:
        mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}.get(e["status"], "?")
        line = f"{e['check']:<{width}}  {mark:<4}  {e.get('detail', '')}".rstrip()
        if e["status"] == "fail" and e.get("witness"):
            line += f"\n{'':<{width}}        witness: {json.dumps(e['witness'])}"
        lines.append(line)
    return "\n".join(lines)

"""JSON formats for scalars, matrices, datum files and reports.

Round trips are bit-exact: values are serialized in their canonical
power-basis form with rational coefficient strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Union

from .checks import CheckResult, VerificationReport
from .cyclotomic import CycNum
from .datum import KIND_BOLD, KIND_FULL, ModularDatum, RawDatum
from .matrix import CycMatrix

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


# ---------- scalars ----------

def cyc_to_json(x: CycNum) -> dict:
    return {"conductor": x.conductor,
            "coeffs": [str(c) for c in x.coeffs]}


def cyc_from_json(obj: dict) -> CycNum:
    try:
        n = _int(obj["conductor"])
        coeffs = [Fraction(c) for c in _list(obj["coeffs"], str, int)]
        return CycNum.from_coeffs(n, coeffs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad scalar object: {exc}") from exc


# ---------- matrices ----------

def matrix_to_json(m: CycMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[cyc_to_json(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]}


def matrix_from_json(obj: dict) -> CycMatrix:
    try:
        rows, cols = _int(obj["rows"]), _int(obj["cols"])
        entries = [cyc_from_json(e) for row in obj["entries"] for e in row]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    return CycMatrix(rows, cols, entries)


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
        labels = tuple(str(x) for x in obj["labels"])
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(datum_to_json(datum), fh, indent=1)
        fh.write("\n")


def load_datum(path: str) -> Union[RawDatum, ModularDatum]:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
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

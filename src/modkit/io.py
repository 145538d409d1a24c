"""JSON formats for scalars, matrices, datum files and reports.

Round trips are bit-exact: values are serialized in their canonical
power-basis form with rational coefficient strings ``p`` or ``p/q`` in
lowest terms.  Matrices are read and written as integer coefficient slices,
without a :class:`CycNum` per entry; one writer, :func:`datum_text`, renders
a datum file's text from those slices.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain
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


def _list(v: Any, *types: type, what: str = "list items") -> list:
    """A JSON list whose items are each of one of ``types`` exactly (so
    ``True`` is not an int), checked with one pass over the items."""
    if not isinstance(v, list):
        raise FormatError(f"expected a list, got {v!r}")
    bad = set(map(type, v)).difference(types)
    if bad:
        raise FormatError(f"{what} must be {'/'.join(t.__name__ for t in types)}, "
                          f"got {'/'.join(sorted(t.__name__ for t in bad))}")
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
    coeffs = [ratios[c] for c in _list(obj["coeffs"], str, int)]
    _check_phi(n, {len(coeffs)})
    return n, coeffs


def _check_phi(n: int, counts: set[int]) -> None:
    """Every coefficient count in ``counts`` is phi(n).  Since phi(n) >=
    sqrt(n / 2), a conductor above twice the largest count squared is refused
    before the trial division behind phi, which then takes O(count) steps,
    not O(sqrt(n))."""
    if n < 1:
        raise FormatError(f"conductor must be >= 1, got {n}")
    top = max(counts)
    if n > 2 * top * top:
        raise FormatError(f"need phi({n}) > {top} coordinates, got {top}")
    phi = _K.euler_phi(n)
    if counts != {phi}:
        raise FormatError(f"need phi({n}) = {phi} coordinates, got {min(counts - {phi})}")


# ---------- text ----------
#
# One writer lays out every datum file: the text ``json.dumps(obj, indent=1)``
# gives, rendered from the integer slices without building ``obj``.  A value
# at nesting ``level`` has its closing bracket indented by ``level`` spaces.

def _coeff_texts(num: np.ndarray, den: int) -> list[str]:
    """The texts ``p`` or ``p/q`` of ``num / den`` in lowest terms, in the
    order of ``num.flat``; each distinct value is formatted once."""
    values, where = np.unique(num.ravel(), return_inverse=True)
    texts = np.array([_ratio_text(v, den) for v in values.tolist()], dtype=object)
    return texts[where].tolist()


def _list_text(items: list[str], level: int) -> str:
    if not items:
        return "[]"
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * level + "]"


def _object_text(fields: list[tuple[str, str]], level: int) -> str:
    inner = "\n" + " " * (level + 1)
    return ("{" + inner + ("," + inner).join(f'"{k}": {v}' for k, v in fields)
            + "\n" + " " * level + "}")


def _scalar_text(conductor: int, texts: list[str], level: int) -> str:
    return _object_text([("conductor", str(conductor)),
                         ("coeffs", _list_text([f'"{t}"' for t in texts], level + 1))], level)


def _cyc_text(x: CycNum, level: int) -> str:
    return _scalar_text(x.conductor, [_ratio_text(v, x.den) for v in x.num], level)


def _matrix_text(m: CycMatrix, level: int) -> str:
    """Every entry shares the matrix's conductor and phi, so one entry's text
    is a fixed head and tail around its quoted coefficients."""
    phi, rows, cols = m.num.shape
    texts = _coeff_texts(m.num.transpose(1, 2, 0), m.den)   # entry by entry
    head, tail = _scalar_text(m.conductor, ["\0"], level + 3).split("\0")
    sep = '",\n' + " " * (level + 5) + '"'
    entries = [head + sep.join(texts[k:k + phi]) + tail for k in range(0, len(texts), phi)]
    grid = [_list_text(entries[i * cols:(i + 1) * cols], level + 2) for i in range(rows)]
    return _object_text([("rows", str(rows)), ("cols", str(cols)),
                         ("entries", _list_text(grid, level + 1))], level)


def datum_text(datum: Union[RawDatum, ModularDatum]) -> str:
    """The datum file's text: exactly ``json.dumps(obj, indent=1)`` of its
    JSON object ``obj`` (:func:`datum_to_json`), without the final newline."""
    if isinstance(datum, ModularDatum):
        kind, name, scalars = KIND_NORMALIZED, "T", datum.t_diag
    else:
        kind, name, scalars = datum.kind, "twists", datum.twists
    fields = [("labels", _list_text(list(map(json.dumps, datum.labels)), 1)),
              ("unit", str(datum.unit)),
              ("conductor", str(datum.s_matrix.conductor)),
              ("kind", json.dumps(kind)),
              ("S", _matrix_text(datum.s_matrix, 1)),
              (name, _list_text([_cyc_text(x, 2) for x in scalars], 1))]
    if isinstance(datum, RawDatum):
        for key in ("duality", "duality_signs"):
            values = getattr(datum, key)
            if values is not None:
                fields.append((key, _list_text(list(map(str, values)), 1)))
    return _object_text(fields, 0)


# ---------- scalars ----------

def cyc_to_json(x: CycNum) -> dict:
    return json.loads(_cyc_text(x, 0))


def _cyc(obj: dict, ratios: _Ratios) -> CycNum:
    try:
        n, coeffs = _scalar(obj, ratios)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad scalar object: {exc}") from exc
    den = math.lcm(*(q for _, q in coeffs))
    return CycNum(n, tuple(p * (den // q) for p, q in coeffs), den)


# ---------- matrices ----------

def matrix_to_json(m: CycMatrix) -> dict:
    return json.loads(_matrix_text(m, 0))


def _matrix(obj: dict, ratios: _Ratios) -> CycMatrix:
    """The matrix of a JSON object: ``entries`` is ``rows`` lists of ``cols``
    scalar objects.  Each check runs once over all entries, or once per
    conductor.  The coefficients fill one ``(phi, rows, cols)`` array over the
    lcm of their denominators; each group of entries at a smaller conductor is
    lifted to the lcm of the conductors as a whole."""
    try:
        rows, cols = _int(obj["rows"]), _int(obj["cols"])
        grid = _list(obj["entries"], list)
        if len(grid) != rows or cols < 0 or any(len(r) != cols for r in grid):
            raise FormatError(f"entries must be {rows} lists of {cols} scalars")
        flat = _list(list(chain.from_iterable(grid)), dict, what="matrix entries")
        conductors = _list([e["conductor"] for e in flat], int, what="conductors")
        lists = _list([e["coeffs"] for e in flat], list, what="coefficient lists")
        groups: dict[int, list[int]] = {}
        for k, m in enumerate(conductors):
            groups.setdefault(m, []).append(k)
        texts: dict[int, list] = {}   # each group's coefficients, entry by entry
        for m, where in groups.items():
            part = [lists[k] for k in where]
            _check_phi(m, set(map(len, part)))
            texts[m] = _list(list(chain.from_iterable(part)), str, int, what="coefficients")
        pq = {c: ratios[c] for c in set().union(*texts.values())}
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    n = math.lcm(*groups)
    den = math.lcm(*(q for _, q in pq.values()))
    value = {c: p * (den // q) for c, (p, q) in pq.items()}
    phi = _K.euler_phi(n)
    num = np.zeros((phi, rows * cols), dtype=np.int64)
    for m, where in groups.items():
        part = int_array(list(map(value.__getitem__, texts[m])))
        part = part.reshape(len(where), -1).T[:, None, :]
        part = CycMatrix.from_slices(m, part, 1).lift(n).num[:, 0, :]
        if part.dtype == object:
            num = num.astype(object)
        num[:, where] = part
    return CycMatrix.from_slices(n, num.reshape(phi, rows, cols), den)


# ---------- datum files ----------

def datum_to_json(datum: Union[RawDatum, ModularDatum]) -> dict:
    return json.loads(datum_text(datum))


def datum_from_json(obj: dict) -> Union[RawDatum, ModularDatum]:
    """One coefficient text is parsed once, wherever it appears in the datum."""
    ratios = _Ratios()
    try:
        labels = tuple(_list(obj["labels"], str))
        unit = _int(obj["unit"])
        kind = obj["kind"]
        s = _matrix(obj["S"], ratios)
        if kind == KIND_NORMALIZED:
            if "T" not in obj:
                raise FormatError("normalized datum needs T")
            t = tuple(_cyc(v, ratios) for v in obj["T"])
            return ModularDatum(labels, unit, s, t)
        if kind not in (KIND_FULL, KIND_BOLD):
            raise FormatError(f"unknown kind {kind!r}")
        if "twists" not in obj:
            raise FormatError("raw datum needs twists")
        twists = tuple(_cyc(v, ratios) for v in obj["twists"])
        duality = tuple(_list(obj["duality"], int)) if "duality" in obj else None
        signs = tuple(_list(obj["duality_signs"], int)) if "duality_signs" in obj else None
        return RawDatum(labels, unit, s, twists, kind, duality, signs)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad datum object: {exc}") from exc


def save_datum(datum: Union[RawDatum, ModularDatum], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(datum_text(datum) + "\n")


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

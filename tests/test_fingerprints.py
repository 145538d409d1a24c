"""Pinned outputs of the verification pipeline.

For each datum of a fixed grid, SHA-256 fingerprints of the report JSON
without its ``ms`` timings, of the Verlinde tensor and, where a world was
built, of the emitted normalized datum and its ``verify_normalized`` report
are compared with ``tests/data/fingerprints.json``.  A change that only
restructures the code keeps every one of them byte-identical.
"""

import hashlib
import json
from pathlib import Path

from modkit import io
from modkit.cyclotomic import zeta
from modkit.datum import RawDatum
from modkit.families import pointed_cyclic, sl2_q16_counterexample, taft_double
from modkit.pipeline import emit_zmodular, verify_normalized, verify_raw

FINGERPRINTS = Path(__file__).parent / "data" / "fingerprints.json"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(report, classification=None) -> str:
    entries = io.report_to_json(report, classification=classification)
    entries = [{k: v for k, v in e.items() if k != "ms"} for e in entries]
    return _digest(json.dumps(entries, sort_keys=True).encode())


def fingerprints(name: str, result) -> dict[str, str]:
    """Digests of one ``verify_raw`` result and of what ``emit_zmodular``
    makes of its world."""
    out = {f"{name}/report": _report_digest(result.report, result.classification)}
    if result.tensor is not None:
        t = result.tensor
        out[f"{name}/tensor"] = _digest(f"{t.dtype.str}{t.shape}".encode() + t.tobytes())
    if result.world is not None:
        emitted = emit_zmodular(result.sldeg if result.sldeg is not None else result.world)
        if emitted.datum is None:
            out[f"{name}/certificate"] = _report_digest(emitted.certificate)
        else:
            datum_json = json.dumps(io.datum_to_json(emitted.datum), sort_keys=True)
            out[f"{name}/emit"] = _digest(datum_json.encode())
            normalized = verify_normalized(emitted.datum)
            out[f"{name}/normalized"] = _report_digest(normalized.report,
                                                       normalized.classification)
    return out


def grid_fingerprints(taft_verified, pointed_verified) -> dict[str, str]:
    """Taft d = 2..8 and the pointed grid (the session fixtures), both q16
    parts, Taft d=3 with one twist moved by zeta_3, and the degenerate
    pointed datum n=9, a=3."""
    out = {}
    for d, timed in taft_verified.items():
        out.update(fingerprints(f"taft{d}", timed.result))
    for (n, a, k0), result in pointed_verified.items():
        out.update(fingerprints(f"pointed{n},{a},{k0}", result))
    full, bold = sl2_q16_counterexample()
    out.update(fingerprints("q16-full", verify_raw(full)))
    out.update(fingerprints("q16-bold", verify_raw(bold)))
    raw = taft_double(3)
    twists = list(raw.twists)
    twists[1] = twists[1] * zeta(3)
    twisted = RawDatum(raw.labels, raw.unit, raw.s_matrix, tuple(twists), raw.kind, raw.duality)
    out.update(fingerprints("taft3-twisted", verify_raw(twisted)))
    out.update(fingerprints("pointed9,3,0", verify_raw(pointed_cyclic(9, 3, 0))))
    return out


def test_outputs_match_pinned_fingerprints(taft_verified, pointed_verified):
    want = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    got = grid_fingerprints(taft_verified, pointed_verified)
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []

"""Command-line interface.

Verbs: generate family data, verify datum files, decompose fusion products
(with oracle cross-checks), reduce a full datum to its representative-indexed
restriction, and render report files.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from . import io
from .checks import FAIL, PASS, SKIPPED
from .datum import KIND_FULL, DegeneracyError, ModularDatum, RawDatum
from .families import FamilySpecError, FamilyInstance, from_spec
from .pipeline import (PipelineResult, emit_zmodular, oracle_tensor, reduce_slightly_degenerate,
                       resolve_world, verify_normalized, verify_raw)
from .verlinde import verlinde_raw

USAGE_ERROR = 2


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        inst = from_spec(args.spec)
    except FamilySpecError as exc:
        return _fail_usage(str(exc))
    io.save_datum(inst.raw, args.out)
    print(f"wrote {inst.name}: {inst.raw.size} labels, kind {inst.raw.kind}, "
          f"conductor {inst.raw.s_matrix.conductor} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    try:
        datum = io.load_datum(args.input)
    except (OSError, io.FormatError) as exc:
        return _fail_usage(f"cannot read datum: {exc}")
    for path in (args.emit_zmodular, args.out):
        if path:
            _check_writable(path)

    if isinstance(datum, ModularDatum):
        result = verify_normalized(datum)
    else:
        result = verify_raw(datum)

    if args.emit_zmodular:
        _emit(result, args.emit_zmodular)

    entries = io.report_to_json(result.report, classification=result.classification)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(entries, indent=1) + "\n")
    if args.pretty:
        print(io.render_report(entries))
    elif not args.out:
        print(json.dumps(entries, indent=1))
    if not args.pretty:
        print(f"classification: {result.classification}", file=sys.stderr)
    return result.exit_code


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, before any work is
    done.  The file a write would reach (through any symlink) is opened for
    appending, which leaves its bytes as they are, and removed again when
    this call created it."""
    target = os.path.realpath(path)
    existed = os.path.exists(target)
    with open(target, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(target)


def _emit(result: PipelineResult, path: str) -> None:
    if result.world is None:
        print("emit: no world to normalize (verification did not reach that stage)",
              file=sys.stderr)
        return
    emitted = emit_zmodular(result.sldeg if result.sldeg is not None else result.world)
    if emitted.datum is not None:
        io.save_datum(emitted.datum, path)
        print(f"emit: normalized datum written to {path} "
              f"(normalizer {emitted.normalizer}; {emitted.note})", file=sys.stderr)
    else:
        entries = io.report_to_json(emitted.certificate)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"certificate": "verified up to scalar", "note": emitted.note,
                       "checks": entries}, fh, indent=1)
            fh.write("\n")
        print(f"emit: {emitted.note}; certificate written to {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def _load_source(text: str) -> tuple[Optional[FamilyInstance], RawDatum]:
    if ":" in text and not os.path.exists(text):
        inst = from_spec(text)
        return inst, inst.raw
    datum = io.load_datum(text)
    if isinstance(datum, ModularDatum):
        raise FamilySpecError("fusion needs a raw datum (or a family spec)")
    return None, datum


def _format_multiset(pairs: list[tuple[str, int]]) -> str:
    terms = []
    for label, m in pairs:
        if m == 1:
            terms.append(label)
        elif m == -1:
            terms.append(f"-{label}")
        else:
            terms.append(f"{m}*{label}")
    return "{" + ", ".join(terms) + "}"


def _terms(labels, row, sign: int = 1) -> list[tuple[str, int]]:
    return [(labels[k], sign * int(m)) for k, m in enumerate(row) if m]


def cmd_fusion(args) -> int:
    """x (x) y by the family's fusion oracle, or without one or with
    ``--compare`` by the S-matrix route in the datum's world; ``--compare``
    then compares it with :func:`oracle_tensor`, as ``oracle_equivalence`` does."""
    try:
        inst, raw = _load_source(args.source)
        oracle = inst.fusion_oracle if inst is not None else None
    except (FamilySpecError, OSError, io.FormatError) as exc:
        return _fail_usage(str(exc))
    labels = list(raw.labels)
    try:
        x, y = labels.index(args.x.strip()), labels.index(args.y.strip())
    except ValueError:
        bad = args.x if args.x.strip() not in labels else args.y
        return _fail_usage(f"unknown label {bad!r} (labels: {', '.join(labels)})")
    if oracle is None and args.compare:
        return _fail_usage("no independent fusion oracle for this source")
    if oracle is not None and not args.compare:
        print(_format_multiset(_terms(labels, oracle.table[x, y])))
        return 0
    try:
        world, sldeg = resolve_world(raw, inst.reps if inst is not None else None)
        tensor, _ = verlinde_raw(world)
        if tensor is None:
            raise DegeneracyError("the S-matrix route gives non-integral coefficients")
    except DegeneracyError as exc:
        print(f"verlinde route failed: {exc}", file=sys.stderr)
        return 1
    signed = sldeg.signed_reps() if sldeg is not None else [(i, 1) for i in range(raw.size)]
    (xi, sx), (yi, sy) = signed[x], signed[y]
    verlinde = _terms(world.labels, tensor[xi, yi], sx * sy)
    if not args.compare:
        print(_format_multiset(verlinde))
        return 0
    try:
        family = sorted(_terms(world.labels, oracle_tensor(oracle, sldeg)[xi, yi], sx * sy))
    except DegeneracyError as exc:
        print(f"fusion oracle failed: {exc}", file=sys.stderr)
        return 1
    folded = family != sorted(_terms(labels, oracle.table[x, y]))
    print("family (folded through the quotient):" if folded else "family:  ",
          _format_multiset(family))
    verlinde.sort()
    print("verlinde:", _format_multiset(verlinde))
    if family != verlinde:
        print("MISMATCH between the fusion oracle and the S-matrix route", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> int:
    try:
        datum = io.load_datum(args.input)
    except (OSError, io.FormatError) as exc:
        return _fail_usage(f"cannot read datum: {exc}")
    if not isinstance(datum, RawDatum) or datum.kind != KIND_FULL:
        return _fail_usage("reduce needs a full raw datum")
    try:
        sldeg = reduce_slightly_degenerate(datum)
    except DegeneracyError as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return 1
    world = sldeg.world
    io.save_datum(world.raw, args.out)
    print(f"fermion {datum.labels[sldeg.epsilon]}; representatives [{', '.join(world.labels)}]; "
          f"sdim {world.global_dim}; unit_bar {world.labels[world.unit_bar]} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _check_report(entries) -> None:
    """Every entry is an object with a string ``check`` and a known ``status``."""
    if not isinstance(entries, list):
        raise ValueError("a report file holds a list of check entries")
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"entry {i} is not an object")
        if not isinstance(e.get("check"), str):
            raise ValueError(f"entry {i} has no string 'check'")
        if e.get("status") not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"entry {i} has a 'status' other than {PASS}, {FAIL} or {SKIPPED}")


def cmd_report(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            entries = json.load(fh)
        _check_report(entries)
    except (OSError, ValueError, RecursionError) as exc:
        return _fail_usage(f"cannot read report: {exc}")
    print(io.render_report(entries) if args.pretty else json.dumps(entries, indent=1))
    return 0 if all(e.get("status") != "fail" for e in entries) else 1


# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once: parse_args leaves it unchanged,
    and each call fills a new namespace."""
    p = argparse.ArgumentParser(
        prog="modkit",
        description="construct, verify and classify modular data with exact "
                    "cyclotomic arithmetic")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="write a family datum to a JSON file")
    g.add_argument("spec", help="taft:d=5 | pointed:n=7,a=1,k0=2 | counterexample:sl2q16")
    g.add_argument("out")
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("verify", help="run the full verification pipeline on a datum file")
    v.add_argument("input")
    v.add_argument("--emit-zmodular", metavar="PATH",
                   help="write the normalized datum (or a certificate) to PATH")
    v.add_argument("--out", metavar="PATH", help="write the report JSON to PATH")
    v.add_argument("--pretty", action="store_true", help="human-readable report")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("fusion", help="decompose a product of two labels")
    f.add_argument("source", help="family spec or datum file")
    f.add_argument("x")
    f.add_argument("y")
    f.add_argument("--compare", action="store_true",
                   help="run both routes and fail on mismatch")
    f.set_defaults(fn=cmd_fusion)

    r = sub.add_parser("reduce", help="restrict a full datum to fermion-orbit representatives")
    r.add_argument("input")
    r.add_argument("out")
    r.set_defaults(fn=cmd_reduce)

    rep = sub.add_parser("report", help="validate / pretty-print a report file")
    rep.add_argument("input")
    rep.add_argument("--pretty", action="store_true")
    rep.set_defaults(fn=cmd_report)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OverflowError, OSError) as exc:   # too few split primes; an unwritable output
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())

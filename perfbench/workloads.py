"""The benchmark's workloads: inputs made from a seed, one pass of timed
operations, and the checks each output must pass.

A workload object takes ``(seed, workdir)``.  ``setup()`` builds its inputs
with modkit (family data, fusion oracles, datum files) and may be called
more than once; ``run_pass(p, k)`` runs pass number ``k`` through the
:class:`Pass` ``p``, which times each operation and checks its output.  The
checks use :mod:`reference`, which does not import modkit.

Modkit is reached through module attributes only (``pipeline.verify_raw``),
never through names bound here, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import os
import random
import traceback
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import modkit.cli as mcli
from modkit import datum, families, pipeline
from modkit import io as mio

import reference as ref

# operation categories: verify_s and normalized_s sum the first two; wall_s all
VERIFY, NORMALIZED, OTHER = "verify", "normalized", "other"

Check = Callable[[object], tuple[bool, str]]


class Pass:
    """One pass over a workload: per-operation times and check results."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.times: list[tuple[str, float]] = []   # (operation, seconds)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def op(self, name: str, category: str, fn: Callable[[], object], check: Check,
           known_fault: bool = False):
        """Time ``fn()``, then check its output outside the timed region.

        A failed check counts the operation as failed.  Unless the operation
        exercises a known fault of the program (``known_fault``), it also
        makes the pass incorrect.  Returns the output, or None when ``fn``
        raised.
        """
        self.attempted += 1
        t0 = perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a crash is recorded as a failed operation
            out, err = None, exc
        dt = perf_counter() - t0
        self.seconds[category] += dt
        self.times.append((name, dt))
        if err is not None:
            ok, msg = False, f"raised {type(err).__name__}: {err}"
        else:
            try:
                ok, msg = check(out)
            except Exception as exc:  # an output of the wrong shape fails its check
                ok, msg = False, f"output not as expected ({type(exc).__name__}: {exc})"
        if not ok:
            self._fail(name, msg, known_fault)
        return out

    def skip(self, name: str, reason: str) -> None:
        """An operation that could not run because an earlier one failed."""
        self.attempted += 1
        self._fail(name, f"not run: {reason}", False)

    def _fail(self, name: str, msg: str, known_fault: bool) -> None:
        self.failed += 1
        if not known_fault:
            self.correct = False
        self.problems.append(f"{name}: {msg}" + (" (known fault)" if known_fault else ""))


def first_problem(*results: tuple[bool, str]) -> tuple[bool, str]:
    for ok, msg in results:
        if not ok:
            return False, msg
    return True, ""


def failed_names(report) -> list[str]:
    return [c.name for c in report.failures()]


def normalize(source, path: str):
    """emit_zmodular without a supplied normalizer, the emitted datum's round
    trip through ``path``, then verify_normalized on what was read back."""
    emitted = pipeline.emit_zmodular(source)
    if emitted.datum is None:
        return emitted, None, None
    mio.save_datum(emitted.datum, path)
    back = mio.load_datum(path)
    return emitted, back, pipeline.verify_normalized(back)


def matrix_values(m) -> list[complex]:
    return [ref.num_value(m[i, j]) for i in range(m.rows) for j in range(m.cols)]


# ---------------------------------------------------------------------------
# taft-d9
# ---------------------------------------------------------------------------

class Taft:
    """Taft d (9 in the benchmark), conjugated by a seeded sigma_j, verified
    on a seeded representative set against the Taft fusion oracle, then
    emitted and verified normalized."""

    def __init__(self, seed: int, workdir: str, d: int = 9):
        rng = random.Random(seed)
        self.d = d
        self.j = rng.choice([j for j in range(1, d) if math.gcd(j, d) == 1])
        labels = ref.taft_labels(d)
        chosen: list[tuple[int, int]] = []
        covered: set[tuple[int, int]] = set()
        for x in labels:
            if x in covered:
                continue
            y = ref.taft_eps(d, x)
            covered.update((x, y))
            # the unit's orbit keeps the unit; unit_bar's keeps (d-1, 0), as in
            # taft_J: its partner (1, d-1) would move the normalizer to
            # conductor 4d, doubling phi and the normalized time with the seed
            if (1, 0) in (x, y):
                chosen.append((1, 0))
            elif (d - 1, 0) in (x, y):
                chosen.append((d - 1, 0))
            else:
                chosen.append(rng.choice((x, y)))
        self.rep_labels = sorted(chosen)
        self.reps = tuple(labels.index(x) for x in self.rep_labels)
        self.unit = self.rep_labels.index((1, 0))
        self.path = os.path.join(workdir, f"taft-d{d}-normalized.json")
        self.s_refs = [ref.taft_normalized_entry(d, self.j, x, y)
                       for x in self.rep_labels for y in self.rep_labels]
        self.t_refs = [ref.taft_twist(d, self.j, x) for x in self.rep_labels]
        self.scale = ref.taft_scale(d, self.j, self.rep_labels)
        self.raw_json = self.oracle = None

    def setup(self) -> None:
        raw = families.taft_double(self.d)
        conj = datum.RawDatum(labels=raw.labels, unit=raw.unit,
                              s_matrix=raw.s_matrix.galois(self.j),
                              twists=tuple(t.galois(self.j) for t in raw.twists),
                              kind=raw.kind, duality=raw.duality)
        self.raw_json = mio.datum_to_json(conj)
        self.oracle = families.taft_fusion_tensor(self.d)

    def run_pass(self, p: Pass, k: int) -> None:
        raw = mio.datum_from_json(self.raw_json)   # fresh objects for every pass
        name = f"taft:d={self.d} sigma_{self.j}"
        res = p.op(f"verify_raw {name}", VERIFY,
                   lambda: pipeline.verify_raw(raw, reps=self.reps, fusion_oracle=self.oracle),
                   self.check_verify)
        if res is None or res.sldeg is None:
            p.skip(f"normalize {name}", "verify_raw gave no reduction")
            return
        p.op(f"normalize {name}", NORMALIZED, lambda: normalize(res.sldeg, self.path),
             self.check_normalized)

    def check_verify(self, res) -> tuple[bool, str]:
        k = len(self.reps)
        if res.tensor is None or res.tensor.shape != (k, k, k):
            return False, f"quotient tensor missing or not {k}x{k}x{k}"
        return first_problem(
            ref.check_classification(res.classification, "Z-modular"),
            ref.check_failures(failed_names(res.report), []),
            ("oracle_equivalence" in res.report, "no oracle comparison in the report"),
            ref.check_unit_and_associativity(res.tensor, self.unit),
        )

    def check_normalized(self, out) -> tuple[bool, str]:
        emitted, back, verdict = out
        if back is None:
            return False, "no exact normalizer emitted"
        return first_problem(
            ([str(x) for x in back.labels] == [f"({l},{p})" for l, p in self.rep_labels],
             "emitted labels are not the chosen representatives"),
            ref.check_close(ref.num_value(emitted.normalizer) ** 2, self.scale,
                            "c^2 against D * dim_r(unit_bar)"),
            ref.check_one_phase(matrix_values(back.s_matrix), self.s_refs,
                                ref.taft_phases(self.d, self.rep_labels)),
            ref.check_one_phase([ref.num_value(t) for t in back.t_diag], self.t_refs, [1]),
            ref.check_classification(verdict.classification, "Z-modular"),
            ref.check_failures(failed_names(verdict.report), []),
        )


# ---------------------------------------------------------------------------
# small-grid
# ---------------------------------------------------------------------------

class SmallGrid:
    """Pointed data n = 9..21 (seeded a coprime to n, seeded k0), three
    degenerate pointed data, and both parts of the q16 counterexample."""

    POINTED = tuple(range(9, 22, 2))
    DEGENERATE = (9, 15, 21)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.pointed = [(n, rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1]),
                         rng.randrange(n)) for n in self.POINTED]
        self.degenerate = [(n, rng.choice([a for a in range(1, n) if math.gcd(a, n) > 1]),
                            rng.randrange(n)) for n in self.DEGENERATE]
        self.workdir = workdir
        self.inputs: list = []

    def setup(self) -> None:
        self.inputs = []
        for n, a, k0 in self.pointed:
            self.inputs.append(("pointed", (n, a, k0),
                                mio.datum_to_json(families.pointed_cyclic(n, a, k0)),
                                families.pointed_fusion_tensor(n)))
        for n, a, k0 in self.degenerate:
            self.inputs.append(("degenerate", (n, a, k0),
                                mio.datum_to_json(families.pointed_cyclic(n, a, k0)), None))
        full, bold = families.sl2_q16_counterexample()
        self.inputs.append(("q16", "bold", mio.datum_to_json(bold), None))
        self.inputs.append(("q16", "full", mio.datum_to_json(full), None))

    def run_pass(self, p: Pass, k: int) -> None:
        for kind, params, raw_json, oracle in self.inputs:
            raw = mio.datum_from_json(raw_json)
            if kind == "q16":
                self._q16(p, params, raw)
                continue
            n, a, k0 = params
            name = f"pointed:n={n},a={a},k0={k0}"
            if kind == "degenerate":
                p.op(f"verify_raw {name}", VERIFY, lambda: pipeline.verify_raw(raw),
                     lambda res: first_problem(
                         ref.check_classification(res.classification, "degenerate"),
                         (res.world is None, "a degenerate datum got a world")))
                continue
            res = p.op(f"verify_raw {name}", VERIFY,
                       lambda: pipeline.verify_raw(raw, fusion_oracle=oracle),
                       lambda res: first_problem(
                           ref.check_classification(res.classification, "N-modular"),
                           ref.check_failures(failed_names(res.report), []),
                           ref.check_group_law(res.tensor, n) if res.tensor is not None
                           else (False, "no fusion tensor")))
            if res is None or res.world is None:
                p.skip(f"normalize {name}", "verify_raw gave no world")
                continue
            path = os.path.join(self.workdir, f"pointed-{n}.json")
            p.op(f"normalize {name}", NORMALIZED, lambda: normalize(res.world, path),
                 lambda out: self.check_pointed_normalized(out, n, a, k0))

    def check_pointed_normalized(self, out, n: int, a: int, k0: int) -> tuple[bool, str]:
        emitted, back, verdict = out
        if back is None:
            return False, "no exact normalizer emitted"
        s_refs = [ref.pointed_entry(n, a, k0, k, l) for k in range(n) for l in range(n)]
        t_refs = [ref.pointed_twist(n, a, k0, k) for k in range(n)]
        return first_problem(
            ref.check_close(ref.num_value(emitted.normalizer) ** 2, ref.pointed_scale(n, a, k0),
                            "c^2 against D * dim_r(unit_bar)"),
            ref.check_one_phase(matrix_values(back.s_matrix), s_refs,
                                ref.pointed_phases(n, a, k0)),
            ref.check_one_phase([ref.num_value(t) for t in back.t_diag], t_refs, [1]),
            ref.check_classification(verdict.classification, "N-modular"),
            ref.check_failures(failed_names(verdict.report), []),
        )

    def _q16(self, p: Pass, part: str, raw) -> None:
        name = f"counterexample:sl2q16,part={part}"
        if part == "full":
            p.op(f"verify_raw {name}", VERIFY, lambda: pipeline.verify_raw(raw),
                 lambda res: first_problem(
                     ref.check_classification(res.classification, "fail"),
                     ref.check_failures(failed_names(res.report), ["epsilon_shape"])))
            return
        res = p.op(f"verify_raw {name}", VERIFY, lambda: pipeline.verify_raw(raw),
                   lambda res: first_problem(
                       ref.check_classification(res.classification, "fail"),
                       ref.check_failures(failed_names(res.report),
                                          must_include=("sl2_st_cubed",))))
        if res is None or res.world is None:
            p.skip(f"normalize {name}", "verify_raw gave no world")
            return
        path = os.path.join(self.workdir, "q16-bold.json")
        p.op(f"normalize {name}", NORMALIZED, lambda: normalize(res.world, path),
             self.check_q16_normalized)

    @staticmethod
    def check_q16_normalized(out) -> tuple[bool, str]:
        emitted, back, verdict = out
        if back is None:
            return False, "no exact normalizer emitted"
        c = ref.num_value(emitted.normalizer)
        refs = [v for row in ref.q16_entries("bold") for v in row]
        return first_problem(
            ref.check_one_phase(matrix_values(back.s_matrix), refs, [1 / c]),
            ref.check_classification(verdict.classification, "fail"),
            ref.check_failures(failed_names(verdict.report), must_include=("st_cubed_scalar",)),
        )


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

class CliRun(NamedTuple):
    rc: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliRun:
    """``modkit.cli.main`` in process, as ``python -m modkit`` would end: an
    uncaught exception prints its traceback and gives exit code 1."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mcli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the process would die here with a traceback
            traceback.print_exc()
            rc = 1
    return CliRun(rc, out.getvalue(), err.getvalue())


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# four malformed datum files: each should end in exit code 2 and one
# "error:" line; today each ends otherwise and counts as a failed operation
HOSTILE = ("zero-denominator", "duplicate-label", "conductor-zero", "conductor-negative")


def hostile_variant(base: dict, which: str) -> dict:
    obj = json.loads(json.dumps(base))
    if which == "zero-denominator":
        obj["S"]["entries"][0][0]["coeffs"][0] = "1/0"
    elif which == "duplicate-label":
        obj["labels"][1] = obj["labels"][0]
    elif which == "conductor-zero":
        obj["twists"][0] = {"conductor": 0, "coeffs": ["1"]}
    elif which == "conductor-negative":
        obj["twists"][0]["conductor"] = -3
    else:
        raise ValueError(which)
    return obj


class CliFiles:
    """The verbs of ``modkit`` driven in process through ``modkit.cli.main``
    on datum files: Taft d=5 and d=7, pointed n=11 and both q16 parts."""

    TAFT = (5, 7)
    TAFT_PAIRS = (3, 1)   # fusion --compare queries; one at d=7 costs about 2 s

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        n = 11
        self.pointed = (n, rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1]),
                        rng.randrange(n))
        self.pairs: list[tuple[str, str, str]] = []
        for d, count in zip(self.TAFT, self.TAFT_PAIRS):
            labs = [f"({l},{p})" for l, p in ref.taft_labels(d)]
            self.pairs += [(f"taft:d={d}", rng.choice(labs), rng.choice(labs))
                           for _ in range(count)]
        self.pairs += [(self.pointed_spec, f"d{rng.randrange(n)}", f"d{rng.randrange(n)}")
                       for _ in range(2)]
        self.workdir = workdir
        self.hostile: list[tuple[str, str]] = []

    @property
    def pointed_spec(self) -> str:
        n, a, k0 = self.pointed
        return f"pointed:n={n},a={a},k0={k0}"

    def setup(self) -> None:
        base = mio.datum_to_json(families.taft_double(3))
        self.hostile = []
        for which in HOSTILE:
            path = os.path.join(self.workdir, f"hostile-{which}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(hostile_variant(base, which), fh)
            self.hostile.append((which, path))

    def run_pass(self, p: Pass, k: int) -> None:
        wd = os.path.join(self.workdir, f"pass-{k}")
        os.makedirs(wd)
        f = lambda name: os.path.join(wd, name)  # noqa: E731
        sources = [(f"taft:d={d}", f"taft{d}", "Z-modular", 0) for d in self.TAFT]
        sources += [(self.pointed_spec, "pointed11", "N-modular", 0),
                    ("counterexample:sl2q16,part=bold", "q16bold", "fail", 1),
                    ("counterexample:sl2q16,part=full", "q16full", "fail", 1)]

        def cli(name, category, argv, check, known_fault=False):
            p.op(name, category, lambda: run_cli(argv), check, known_fault)

        for spec, stem, _, _ in sources:
            cli(f"generate {spec}", OTHER, ["generate", spec, f(stem + ".json")],
                lambda r, spec=spec, stem=stem: self.check_generated(r, spec, f(stem + ".json")))
        for spec, stem, cls, rc in sources:
            cli(f"verify {stem}.json --emit-zmodular", VERIFY,
                ["verify", f(stem + ".json"), "--out", f(stem + "-report.json"),
                 "--emit-zmodular", f(stem + "-z.json")],
                lambda r, spec=spec, stem=stem, cls=cls, rc=rc:
                    self.check_verified(r, spec, rc, cls, f(stem + "-report.json"),
                                        f(stem + "-z.json")))
        for spec, stem, cls, rc in sources[:4]:
            cli(f"verify {stem}-z.json", NORMALIZED, ["verify", f(stem + "-z.json")],
                lambda r, cls=cls, rc=rc: self.check_report_stdout(
                    r, rc, cls, ("st_cubed_scalar",) if rc else ()))
        for d in self.TAFT:
            full, bold = f(f"taft{d}.json"), f(f"taft{d}-bold.json")
            cli(f"reduce taft{d}.json", OTHER, ["reduce", full, bold],
                lambda r, d=d, full=full, bold=bold: self.check_reduced(r, d, full, bold))
            cli(f"verify taft{d}-bold.json", VERIFY, ["verify", bold],
                lambda r: self.check_report_stdout(r, 0, "Z-modular"))
        for spec, x, y in self.pairs:
            cli(f"fusion {spec} {x} {y} --compare", OTHER, ["fusion", spec, x, y, "--compare"],
                lambda r, spec=spec, x=x, y=y: self.check_fusion(r, spec, x, y))
        for stem, rc in (("taft5", 0), ("q16bold", 1)):
            path = f(stem + "-report.json")
            cli(f"report {stem}-report.json", OTHER, ["report", path],
                lambda r, rc=rc, path=path: first_problem(
                    (r.rc == rc, f"exit {r.rc}, expected {rc}"),
                    (json.loads(r.out) == load_json(path), "printed report differs from file")))
        for which, path in self.hostile:
            cli(f"verify hostile {which}", OTHER, ["verify", path], self.check_rejected,
                known_fault=True)

    # ---------- checks ----------

    @staticmethod
    def check_rejected(r: CliRun) -> tuple[bool, str]:
        lines = r.err.strip().splitlines()
        return first_problem(
            (r.rc == 2, f"exit {r.rc}, expected 2; stderr ends {r.err.strip()[-80:]!r}"),
            (len(lines) == 1 and lines[0].startswith("error:"),
             "stderr is not one 'error:' line"),
        )

    def check_generated(self, r: CliRun, spec: str, path: str) -> tuple[bool, str]:
        if r.rc != 0:
            return False, f"exit {r.rc}: {r.err.strip()[-200:]}"
        obj = load_json(path)
        if spec.startswith("taft:"):
            d = int(spec.split("=")[1])
            labels = ref.taft_labels(d)
            s_refs = [ref.taft_raw_entry(d, 1, x, y) for x in labels for y in labels]
            t_refs = [ref.taft_twist(d, 1, x) for x in labels]
        elif spec.startswith("pointed:"):
            n, a, k0 = self.pointed
            s_refs = [ref.pointed_entry(n, a, k0, k, l) for k in range(n) for l in range(n)]
            t_refs = [ref.pointed_twist(n, a, k0, k) for k in range(n)]
        else:
            part = spec.rsplit("=", 1)[1]
            s_refs = [v for row in ref.q16_entries(part) for v in row]
            t_refs = ref.q16_twists(part)
        s_vals = [ref.json_value(e) for row in obj["S"]["entries"] for e in row]
        return first_problem(
            ref.check_one_phase(s_vals, s_refs, [1]),
            ref.check_one_phase([ref.json_value(t) for t in obj["twists"]], t_refs, [1]),
            self.check_round_trip(path, obj),
        )

    @staticmethod
    def check_round_trip(path: str, obj: dict) -> tuple[bool, str]:
        """The datum modkit reads back from ``path`` writes out as the same JSON."""
        again = mio.datum_to_json(mio.load_datum(path))
        return again == obj, f"{os.path.basename(path)} does not re-read to the datum written"

    def check_verified(self, r: CliRun, spec: str, rc: int, cls: str, report: str,
                       emitted: str) -> tuple[bool, str]:
        if r.rc != rc:
            return False, f"exit {r.rc}, expected {rc}: {r.err.strip()[-200:]}"
        entries = load_json(report)
        failed = [e["check"] for e in entries[1:] if e["status"] == "fail"]
        head = (entries[0]["check"] == "classification" and entries[0]["detail"] == cls,
                f"report classification {entries[0].get('detail')!r}, expected {cls!r}")
        if spec.endswith("part=full"):
            return first_problem(head, ref.check_failures(failed, ["epsilon_shape"]),
                                 (not os.path.exists(emitted), "emitted a datum without a world"))
        if spec.endswith("part=bold"):
            return first_problem(head, ref.check_failures(failed, must_include=("sl2_st_cubed",)),
                                 (os.path.exists(emitted), "no emitted file"))
        if not os.path.exists(emitted):
            return False, "no emitted file"
        obj = load_json(emitted)
        values = [ref.json_value(e) for row in obj["S"]["entries"] for e in row]
        if spec.startswith("taft:"):
            d = int(spec.split("=")[1])
            reps = [ref.parse_taft_label(x) for x in obj["labels"]]
            refs = [ref.taft_normalized_entry(d, 1, x, y) for x in reps for y in reps]
            phases = ref.taft_phases(d, reps)
            reps_ok = ref.check_taft_reps(d, reps)
        else:
            n, a, k0 = self.pointed
            refs = [ref.pointed_entry(n, a, k0, k, l) for k in range(n) for l in range(n)]
            phases = ref.pointed_phases(n, a, k0)
            reps_ok = (obj["labels"] == [f"d{k}" for k in range(n)], "emitted labels changed")
        return first_problem(head, ref.check_failures(failed, []), reps_ok,
                             (obj.get("kind") == "normalized", "emitted kind is not normalized"),
                             ref.check_one_phase(values, refs, phases),
                             self.check_round_trip(emitted, obj))

    @staticmethod
    def check_report_stdout(r: CliRun, rc: int, cls: str,
                            must_fail: tuple[str, ...] = ()) -> tuple[bool, str]:
        if r.rc != rc:
            return False, f"exit {r.rc}, expected {rc}: {r.err.strip()[-200:]}"
        entries = json.loads(r.out)
        failed = [e["check"] for e in entries[1:] if e["status"] == "fail"]
        return first_problem(
            ref.check_classification(entries[0]["detail"], cls),
            ref.check_failures(failed, None if rc else [], must_include=must_fail),
        )

    def check_reduced(self, r: CliRun, d: int, full: str, bold: str) -> tuple[bool, str]:
        if r.rc != 0:
            return False, f"exit {r.rc}: {r.err.strip()[-200:]}"
        f_obj, b_obj = load_json(full), load_json(bold)
        idx = [f_obj["labels"].index(x) for x in b_obj["labels"]]
        restricted = [[f_obj["S"]["entries"][i][k] for k in idx] for i in idx]
        return first_problem(
            (b_obj["kind"] == "raw-bold", f"kind {b_obj['kind']!r}, expected 'raw-bold'"),
            ref.check_taft_reps(d, [ref.parse_taft_label(x) for x in b_obj["labels"]]),
            (b_obj["S"]["entries"] == restricted, "bold S is not the restriction of S"),
            (b_obj["twists"] == [f_obj["twists"][i] for i in idx],
             "bold twists are not the restriction"),
            self.check_round_trip(bold, b_obj),
        )

    def check_fusion(self, r: CliRun, spec: str, x: str, y: str) -> tuple[bool, str]:
        if r.rc != 0:
            return False, f"exit {r.rc}: {r.err.strip()[-200:]}"
        lines = r.out.strip().splitlines()
        if len(lines) != 2 or not lines[1].startswith("verlinde:"):
            return False, f"unexpected output {r.out!r}"
        family = ref.parse_multiset(lines[0].split(":", 1)[1])
        verlinde = ref.parse_multiset(lines[1].split(":", 1)[1])
        same = (family == verlinde, "family and verlinde lines differ")
        if spec.startswith("pointed:"):
            n = self.pointed[0]
            want = [(f"d{(int(x[1:]) + int(y[1:])) % n}", 1)]
            return first_problem(same, (verlinde == want, f"{verlinde} is not {want}"))
        d = int(spec.split("=")[1])
        return first_problem(same, ref.check_dims_product(d, x, y, verlinde))


WORKLOADS = {"taft-d9": Taft, "small-grid": SmallGrid, "cli-files": CliFiles}

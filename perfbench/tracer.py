"""Per-layer tracing of modkit from outside the package.

:class:`Tracer` puts wrappers around the public functions of each modkit
module and around a few hot methods, without changing anything under
``src/``.  A wrapper replaces a name where callers look it up: every
``modkit.*`` module attribute bound to the original function (``pipeline``
binds ``check_sl2_relations`` at import), the class attribute for methods,
and the attribute of the kernel module that ``matrix``, ``verlinde`` and
``cyclotomic`` read as ``_K.dot`` / ``_K.mul`` on each call.

Layers are modkit's modules.  A span is ``[name, start, end, parent,
kernel_s]``: ``parent`` is the index of the enclosing span (-1 at the top) and
``kernel_s`` the time spent directly inside it in kernel calls, which are
counted and timed but get no span of their own.  A layer's self time is the
duration of its spans minus what their child spans and kernel calls cover.
Spans and counters stay in memory until :meth:`Tracer.metrics` and
:meth:`Tracer.dump` read them at the end of the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("cyclotomic", "matrix", "datum", "fusion", "verlinde", "checks",
          "pipeline", "families", "io", "cli")

# (layer, class, method): hot methods that module-level wrapping cannot reach
METHODS = (
    ("cyclotomic", "CycNum", "inv"),
    ("matrix", "CycMatrix", "__matmul__"),
    ("matrix", "CycMatrix", "power"),
    ("matrix", "CycMatrix", "rank"),
    ("datum", "World", "__init__"),
    ("datum", "World", "e_matrix"),
)

KERNEL_FUNCS = ("dot", "mul")

# per-layer metric -> (kind, unit, span names); "s" sums the outermost spans
# of the named functions, "calls" counts them
SPAN_METRICS = {
    "cyclotomic.inv_calls": ("calls", "count", ["cyclotomic.CycNum.inv"]),
    "cyclotomic.inv_s": ("s", "s", ["cyclotomic.CycNum.inv"]),
    "cyclotomic.sqrt_in_field_s": ("s", "s", ["cyclotomic.sqrt_in_field"]),
    "cyclotomic.is_totally_positive_s": ("s", "s", ["cyclotomic.is_totally_positive"]),
    "cyclotomic.is_root_of_unity_s": ("s", "s", ["cyclotomic.is_root_of_unity"]),
    "matrix.matmul_calls": ("calls", "count", ["matrix.CycMatrix.__matmul__"]),
    "matrix.matmul_s": ("s", "s", ["matrix.CycMatrix.__matmul__"]),
    "matrix.rank_s": ("s", "s", ["matrix.CycMatrix.rank"]),
    "datum.world_calls": ("calls", "count", ["datum.World.__init__"]),
    "datum.world_s": ("s", "s", ["datum.World.__init__"]),
    "datum.reduce_s": ("s", "s", ["datum.reduce_slightly_degenerate"]),
    "datum.epsilon_action_s": ("s", "s", ["datum.epsilon_action"]),
    "datum.symmetric_center_s": ("s", "s", ["datum.detect_symmetric_center"]),
    "checks.unitarity_s": ("s", "s", ["checks.check_raw_unitarity"]),
    "checks.twist_laws_s": ("s", "s", ["checks.check_twist_laws"]),
    "checks.sl2_s": ("s", "s", ["checks.check_sl2_relations"]),
    "checks.vafa_s": ("s", "s", ["checks.check_vafa"]),
    "checks.positivity_s": ("s", "s", ["checks.check_total_positivity"]),
    "checks.balancing_s": ("s", "s", ["checks.check_balancing"]),
    "checks.axioms_s": ("s", "s", ["checks.check_axioms"]),
    "verlinde.raw_calls": ("calls", "count", ["verlinde.verlinde_raw"]),
    "verlinde.raw_s": ("s", "s", ["verlinde.verlinde_raw"]),
    "verlinde.fusion_s": ("s", "s", ["verlinde.verlinde_fusion"]),
    "fusion.quotient_s": ("s", "s", ["fusion.quotient_constants"]),
    "families.generate_s": ("s", "s", ["families.taft_double", "families.pointed_cyclic",
                                       "families.sl2_q16_counterexample"]),
    "families.oracle_s": ("s", "s", ["families.taft_fusion_tensor",
                                     "families.pointed_fusion_tensor"]),
    "io.save_s": ("s", "s", ["io.save_datum"]),
    "io.load_s": ("s", "s", ["io.load_datum"]),
    "cli.verify_s": ("s", "s", ["cli.cmd_verify"]),
    "cli.reduce_s": ("s", "s", ["cli.cmd_reduce"]),
    "cli.fusion_s": ("s", "s", ["cli.cmd_fusion"]),
}

COUNTER_METRICS = {
    "kernel.dot_calls": "count",
    "kernel.dot_terms": "count",
    "kernel.mul_calls": "count",
    "kernel.dot_s": "s",
    "kernel.mul_s": "s",
    "matrix.matmul_work": "count",
    "io.bytes": "bytes",
}

SELF_METRICS = tuple(f"{layer}.self_s" for layer in ("kernel",) + LAYERS)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: unit for name, (_, unit, _) in SPAN_METRICS.items()}
    units.update(COUNTER_METRICS)
    units.update({"kernel.tables": "count", "kernel.table_ints": "count",
                  "kernel.max_coeff_bits": "bits"})
    units.update({name: "s" for name in SELF_METRICS})
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.max_bits = 0
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------- installing wrappers ----------

    def install(self) -> None:
        """Wrap every target; targets a later modkit no longer has are
        recorded in ``absent``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        seen: set[int] = set()
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"modkit.{layer}")
            except ImportError:
                self._note_absent(f"modkit.{layer}")
                continue
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__ or id(fn) in seen:
                    continue
                seen.add(id(fn))
                span = f"{layer}.{name}"
                after = self._io_bytes if span in ("io.save_datum", "io.load_datum") else None
                self._replace(fn, self._span_wrapper(span, fn, after=after))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"modkit.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self._note_absent(f"{layer}.{cls_name}.{meth}")
                continue
            hook = self._matmul_work if meth == "__matmul__" else None
            wrapper = self._span_wrapper(f"{layer}.{cls_name}.{meth}", fn, before=hook)
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, fn))
        kernel = getattr(sys.modules.get("modkit.kernel"), "impl", None)
        for name in KERNEL_FUNCS:
            fn = getattr(kernel, name, None)
            if fn is None:
                self._note_absent(f"kernel.{name}")
                continue
            setattr(kernel, name, self._kernel_wrapper(name, fn))
            self._patches.append((kernel, name, fn))
            self.wrapped.add(f"kernel.{name}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def _replace(self, orig, wrapper) -> None:
        """Bind ``wrapper`` wherever a modkit module binds ``orig``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "modkit" or modname.startswith("modkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, orig))

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        self.wrapped.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                before(args)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return out

        return wrapper

    def _kernel_wrapper(self, name: str, fn):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter
        calls_key, time_key = f"kernel.{name}_calls", f"kernel.{name}_s"
        is_dot = name == "dot"

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            num, den = fn(*args)
            dt = clock() - t0
            if stack:
                spans[stack[-1]][4] += dt
            counters[calls_key] += 1
            counters[time_key] += dt
            if is_dot:
                counters["kernel.dot_terms"] += len(args[0])
            bits = max(max(num), -min(num), den).bit_length()
            if bits > self.max_bits:
                self.max_bits = bits
            return num, den

        return wrapper

    def _matmul_work(self, args) -> None:
        a, b = args[0], args[1]
        self.counters["matrix.matmul_work"] += a.rows * a.cols * getattr(b, "cols", 0)

    def _io_bytes(self, args, kwargs) -> None:
        path = kwargs.get("path", args[-1] if args else None)
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            self.counters["io.bytes"] += os.path.getsize(path)

    # ---------- derived numbers ----------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, from the spans (kernel: its timed calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in ("kernel",) + LAYERS}
        for i, (name, start, end, _, kernel_s) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i] - kernel_s
        out["kernel"] = sum(self.counters[f"kernel.{n}_s"] for n in KERNEL_FUNCS)
        return out

    def _outermost(self, names: set[str]) -> list[int]:
        """Spans named in ``names`` with no enclosing span also in ``names``."""
        out = []
        for i, rec in enumerate(self.spans):
            if rec[0] not in names:
                continue
            p = rec[3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        units = per_layer_units()
        values: dict[str, float] = {}
        for metric, (kind, _, names) in SPAN_METRICS.items():
            if not any(n in self.wrapped for n in names):
                self._note_absent(metric)
            if kind == "calls":
                values[metric] = sum(1 for rec in self.spans if rec[0] in names)
            else:
                values[metric] = sum(self.spans[i][2] - self.spans[i][1]
                                     for i in self._outermost(set(names)))
        for metric in COUNTER_METRICS:
            values[metric] = self.counters[metric]
        tables, table_ints = kernel_tables()
        values["kernel.tables"] = tables
        values["kernel.table_ints"] = table_ints
        values["kernel.max_coeff_bits"] = self.max_bits
        for layer, secs in self.self_times().items():
            values[f"{layer}.self_s"] = secs
        values["trace.overhead_s"] = overhead_s
        values["trace.spans"] = len(self.spans)
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in units.items()}

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans, counters and derived numbers as JSON."""
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["counters"] = dict(self.counters)
        doc["self_s"] = self.self_times()
        doc["span_fields"] = ["name", "start", "end", "parent", "kernel_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def kernel_tables() -> tuple[int, int]:
    """(tables held, ints in their reduction rows) for the active kernel.

    The count comes from the table cache; the ints from every live object of
    the kernel's table type, found through the garbage collector."""
    impl = getattr(sys.modules.get("modkit.kernel"), "impl", None)
    table = getattr(impl, "table", None)
    if table is None:
        return 0, 0
    info = getattr(table, "cache_info", None)
    cls = type(table(1))
    live = [o for o in gc.get_objects() if type(o) is cls]
    count = info().currsize if info is not None else len(live)
    ints = sum(len(o.rows) * o.phi for o in live if hasattr(o, "rows") and hasattr(o, "phi"))
    return count, ints

"""The public names of modkit, and the attributes the benchmark harness in
``perfbench/`` reads: a cleanup that removes one fails here first."""

import importlib

import modkit

# (module, dotted attribute) pairs read by perfbench/run.py, tracer.py and workloads.py
HARNESS = [
    ("modkit", "__version__"),
    ("modkit", "kernel_backend"),
    ("modkit.kernel", "impl.mul"),
    ("modkit.cyclotomic", "CycNum.coeffs"),
    ("modkit.io", "datum_to_json"),
    ("modkit.io", "datum_from_json"),
    ("modkit.io", "load_datum"),
    ("modkit.io", "save_datum"),
    ("modkit.cli", "main"),
    ("modkit.datum", "RawDatum"),
    ("modkit.datum", "ModularDatum"),
    ("modkit.datum", "World.__init__"),
    ("modkit.families", "taft_double"),
    ("modkit.families", "taft_fusion_tensor"),
    ("modkit.families", "pointed_cyclic"),
    ("modkit.families", "pointed_fusion_tensor"),
    ("modkit.families", "sl2_q16_counterexample"),
    ("modkit.pipeline", "verify_raw"),
    ("modkit.pipeline", "verify_normalized"),
    ("modkit.pipeline", "emit_zmodular"),
]


def test_every_exported_name_resolves():
    missing = [name for name in modkit.__all__ if not hasattr(modkit, name)]
    assert missing == []
    assert len(set(modkit.__all__)) == len(modkit.__all__)


def test_the_attributes_the_benchmark_reads_exist():
    missing = []
    for module, dotted in HARNESS:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            if not hasattr(obj, part):
                missing.append(f"{module}.{dotted}")
                break
            obj = getattr(obj, part)
    assert missing == []

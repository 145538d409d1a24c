import json
import random
from fractions import Fraction

import pytest

from modkit import io
from modkit.cli import main as cli_main
from modkit.cyclotomic import CycNum
from modkit.datum import ModularDatum, reduce_slightly_degenerate
from modkit.matrix import CycMatrix
from modkit.families import taft_double, taft_J_indices, taft_normalizer
from modkit.pipeline import emit_zmodular


def run_cli(args):
    try:
        return cli_main(args)
    except SystemExit as exc:   # argparse usage errors
        return exc.code


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_cyc_roundtrip_bit_exact():
    rng = random.Random(0)
    for n in (1, 3, 8, 12, 16):
        from modkit._kernel import euler_phi
        for _ in range(20):
            x = CycNum.from_coeffs(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                       for _ in range(euler_phi(n))])
            back = io.cyc_from_json(json.loads(json.dumps(io.cyc_to_json(x))))
            assert back.conductor == x.conductor
            assert back.num == x.num and back.den == x.den


def test_matrix_roundtrip():
    m = taft_double(3).s_matrix
    back = io.matrix_from_json(json.loads(json.dumps(io.matrix_to_json(m))))
    assert back == m
    assert back.entries == m.entries


def test_raw_datum_roundtrip(tmp_path):
    raw = taft_double(3)
    path = tmp_path / "d.json"
    io.save_datum(raw, str(path))
    back = io.load_datum(str(path))
    assert back.labels == raw.labels
    assert back.s_matrix == raw.s_matrix
    assert back.twists == raw.twists
    assert back.duality == raw.duality
    assert back.kind == raw.kind


def test_normalized_datum_roundtrip(tmp_path):
    sld = reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3))
    em = emit_zmodular(sld, normalizer=taft_normalizer(3))
    path = tmp_path / "n.json"
    io.save_datum(em.datum, str(path))
    back = io.load_datum(str(path))
    assert isinstance(back, ModularDatum)
    assert back.s_matrix == em.datum.s_matrix
    assert back.t_diag == em.datum.t_diag


def test_format_errors():
    with pytest.raises(io.FormatError):
        io.cyc_from_json({"coeffs": ["1"]})
    with pytest.raises(io.FormatError):
        io.datum_from_json({"labels": ["a"], "unit": 0, "kind": "weird",
                            "S": io.matrix_to_json(CycMatrix.identity(1))})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_generate_verify_taft(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert run_cli(["generate", "taft:d=3", str(path)]) == 0
    out = tmp_path / "rep.json"
    code = run_cli(["verify", str(path), "--out", str(out)])
    assert code == 0
    entries = json.loads(out.read_text())
    by = {e["check"]: e for e in entries}
    assert by["classification"]["detail"] == "Z-modular"
    assert by["classification"]["status"] == "pass"


def test_cli_generate_bad_spec_exits_2(tmp_path):
    assert run_cli(["generate", "taft:d=0", str(tmp_path / "x.json")]) == 2
    assert run_cli(["generate", "what:ever", str(tmp_path / "x.json")]) == 2


def test_cli_unknown_flag_exits_2(tmp_path):
    assert run_cli(["verify", "nope.json", "--frobnicate"]) == 2


def test_cli_verify_counterexample_exits_1(tmp_path, capsys):
    path = tmp_path / "cx.json"
    assert run_cli(["generate", "counterexample:sl2q16", str(path)]) == 0
    capsys.readouterr()
    code = run_cli(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    entries = json.loads(captured.out)
    by = {e["check"]: e for e in entries}
    assert by["sl2_st_cubed"]["status"] == "fail"
    assert by["sl2_st_cubed"]["witness"] is not None


def test_cli_verify_missing_file_exits_2():
    assert run_cli(["verify", "/nonexistent/file.json"]) == 2


def test_cli_fusion_compare_and_errors(tmp_path, capsys):
    assert run_cli(["fusion", "taft:d=3", "(2,0)", "(2,0)", "--compare"]) == 0
    captured = capsys.readouterr()
    assert "{(1,1)}" in captured.out
    assert run_cli(["fusion", "pointed:n=3,a=1,k0=0", "d1", "d1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "{d2}"
    assert run_cli(["fusion", "taft:d=3", "(9,9)", "(1,0)"]) == 2


def test_cli_fusion_compare_all_pairs_taft4(capsys):
    for x in ("(1,1)", "(2,0)", "(3,2)"):
        for y in ("(2,1)", "(3,0)"):
            assert run_cli(["fusion", "taft:d=4", x, y, "--compare"]) == 0
    capsys.readouterr()


def test_cli_reduce_then_verify_bold(tmp_path, capsys):
    full = tmp_path / "full.json"
    bold = tmp_path / "bold.json"
    assert run_cli(["generate", "taft:d=4", str(full)]) == 0
    assert run_cli(["reduce", str(full), str(bold)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", str(bold)]) == 0
    entries = json.loads(capsys.readouterr().out)
    by = {e["check"]: e for e in entries}
    assert by["classification"]["detail"] == "Z-modular"


def test_cli_reduce_rejects_nondegenerate(tmp_path, capsys):
    p = tmp_path / "p.json"
    assert run_cli(["generate", "pointed:n=5,a=1,k0=0", str(p)]) == 0
    assert run_cli(["reduce", str(p), str(tmp_path / "out.json")]) == 1


def test_cli_emit_zmodular(tmp_path, capsys):
    full = tmp_path / "full.json"
    emitted = tmp_path / "z.json"
    assert run_cli(["generate", "taft:d=3", str(full)]) == 0
    assert run_cli(["verify", str(full), "--emit-zmodular", str(emitted)]) == 0
    capsys.readouterr()
    datum = io.load_datum(str(emitted))
    assert isinstance(datum, ModularDatum)
    from modkit.checks import check_axioms
    assert check_axioms(datum).passed


def test_cli_report_roundtrip(tmp_path, capsys):
    full = tmp_path / "full.json"
    rep = tmp_path / "rep.json"
    assert run_cli(["generate", "pointed:n=5,a=2,k0=1", str(full)]) == 0
    assert run_cli(["verify", str(full), "--out", str(rep)]) == 0
    capsys.readouterr()
    assert run_cli(["report", str(rep), "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "classification" in out and "N-modular" in out


def test_cli_verify_degenerate_pointed(tmp_path, capsys):
    p = tmp_path / "deg.json"
    assert run_cli(["generate", "pointed:n=9,a=3,k0=0", str(p)]) == 0
    capsys.readouterr()
    code = run_cli(["verify", str(p)])
    entries = json.loads(capsys.readouterr().out)
    by = {e["check"]: e for e in entries}
    assert code == 1
    assert by["classification"]["detail"] == "degenerate"


def test_cli_fusion_compare_builds_the_verlinde_tensor_once(monkeypatch, capsys):
    import modkit.cli as cli
    calls = []
    real = cli.verlinde_raw

    def counting(world):
        calls.append(world.size)
        return real(world)

    monkeypatch.setattr(cli, "verlinde_raw", counting)
    for spec, x, y in (("taft:d=3", "(2,0)", "(2,1)"), ("pointed:n=5,a=1,k0=0", "d1", "d3")):
        calls.clear()
        assert run_cli(["fusion", spec, x, y, "--compare"]) == 0
        assert len(calls) == 1
    capsys.readouterr()


HOSTILE = {
    "zero-denominator": lambda obj: obj["S"]["entries"][0][0]["coeffs"].__setitem__(0, "1/0"),
    "duplicate-label": lambda obj: obj["labels"].__setitem__(1, obj["labels"][0]),
    "conductor-zero": lambda obj: obj["twists"].__setitem__(0, {"conductor": 0,
                                                                "coeffs": ["1"]}),
    "conductor-negative": lambda obj: obj["twists"][0].__setitem__("conductor", -3),
    # JSON floats, booleans and strings where integers belong are refused, not truncated
    "conductor-float": lambda obj: obj["S"]["entries"][0][0].__setitem__("conductor", 3.7),
    "conductor-bool": lambda obj: obj["twists"].__setitem__(0, {"conductor": True,
                                                                "coeffs": ["1"]}),
    "unit-float": lambda obj: obj.__setitem__("unit", 0.9),
    "unit-bool": lambda obj: obj.__setitem__("unit", False),
    "rows-float": lambda obj: obj["S"].__setitem__("rows", 6.5),
    "cols-string": lambda obj: obj["S"].__setitem__("cols", "6"),
    "coeff-float": lambda obj: obj["S"]["entries"][0][0]["coeffs"].__setitem__(0, 0.1),
    "coeff-bool": lambda obj: obj["twists"][0]["coeffs"].__setitem__(0, True),
    "coeffs-string": lambda obj: obj["S"]["entries"][1][2].__setitem__("coeffs", "12"),
    "duality-float": lambda obj: obj["duality"].__setitem__(1, 2.5),
    "duality-string": lambda obj: obj.__setitem__("duality", "021543"),
    "duality-signs-float": lambda obj: obj.__setitem__("duality_signs", [1.0] * 6),
}


@pytest.mark.parametrize("which", sorted(HOSTILE))
def test_cli_rejects_hostile_datum_with_one_error_line(tmp_path, capsys, which):
    obj = io.datum_to_json(taft_double(3))
    HOSTILE[which](obj)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["verify", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("conductor", [0, -3])
def test_scalar_constructors_reject_conductor_below_one(conductor):
    with pytest.raises(ValueError):
        CycNum.from_coeffs(conductor, [1])
    with pytest.raises(ValueError):
        CycNum.from_rational(1, conductor)


def test_datum_types_reject_duplicate_labels():
    raw = taft_double(3)
    labels = (raw.labels[0],) * 2 + raw.labels[2:]
    with pytest.raises(ValueError, match="duplicate label"):
        type(raw)(labels, raw.unit, raw.s_matrix, raw.twists)
    m = CycMatrix.identity(2)
    with pytest.raises(ValueError, match="duplicate label"):
        ModularDatum(("a", "a"), 0, m, (CycNum.from_rational(1),) * 2)


ZERO = {"conductor": 1, "coeffs": ["0"]}
ONE = {"conductor": 1, "coeffs": ["1"]}
I4 = {"conductor": 4, "coeffs": ["0", "1"]}


def _zero_dimension():
    obj = io.datum_to_json(taft_double(3))
    obj["S"]["entries"][0][1] = obj["S"]["entries"][1][0] = ZERO
    del obj["duality"]
    return obj


def _zero_twist():
    obj = io.datum_to_json(taft_double(3))
    obj["twists"][1] = ZERO
    return obj


def _zero_global_dimension():
    # dims (1, i), so the squared norms 1 and -1 sum to 0
    return {"labels": ["a", "b"], "unit": 0, "kind": "raw-full",
            "S": {"rows": 2, "cols": 2, "entries": [[ONE, I4], [I4, ONE]]},
            "twists": [ONE, I4], "duality": [0, 1]}


DEGENERATE = {"zero-dimension": _zero_dimension, "zero-twist": _zero_twist,
              "zero-global-dimension": _zero_global_dimension}


@pytest.mark.parametrize("verb", ["verify", "reduce", "fusion"])
@pytest.mark.parametrize("which", sorted(DEGENERATE))
def test_cli_fails_degenerate_datum_without_traceback(tmp_path, capsys, which, verb):
    obj = DEGENERATE[which]()
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    argv = {"verify": ["verify", str(path)],
            "reduce": ["reduce", str(path), str(tmp_path / "out.json")],
            "fusion": ["fusion", str(path), obj["labels"][0], obj["labels"][-1],
                       "--oracle", "verlinde"]}[verb]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    if verb == "verify":
        classification = json.loads(captured.out)[0]
        assert classification["check"] == "classification"
        assert classification["detail"] == "fail"
    else:
        assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("bits", ["abc", "0", "-5"])
def test_cli_rejects_bad_precision_setting(tmp_path, capsys, monkeypatch, bits):
    path = tmp_path / "t.json"
    assert run_cli(["generate", "taft:d=2", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MODKIT_PRECISION_BITS", bits)
    assert run_cli(["verify", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "MODKIT_PRECISION_BITS" in err[0]

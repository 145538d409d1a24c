import io as io_text
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import intervals
import per_entry
from conftest import (bad_taft3_oracles, galois_conjugate, taft3_at_conductor,
                      zero_global_dimension)
from modkit import io
from modkit.cli import _format_multiset, main as cli_main
from modkit.cyclotomic import CycNum, root_of_unity
from modkit.datum import KIND_FULL, DegeneracyError, ModularDatum, RawDatum
from modkit._kernel import euler_phi
from modkit.matrix import CycMatrix, int_array
from modkit.families import (pointed_cyclic, sl2_q16_counterexample, taft_double,
                             taft_fusion_tensor, taft_J_indices, taft_normalizer)
from modkit.pipeline import (emit_zmodular, reduce_slightly_degenerate, resolve_world,
                             verify_raw)


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
        for _ in range(20):
            x = per_entry.from_coeffs(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                          for _ in range(euler_phi(n))])
            back = per_entry.cyc_from_json(json.loads(json.dumps(io.cyc_to_json(x))))
            assert back.conductor == x.conductor
            assert back.num == x.num and back.den == x.den


def test_matrix_roundtrip():
    m = taft_double(3).s_matrix
    back = per_entry.matrix_from_json(json.loads(json.dumps(io.matrix_to_json(m))))
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
    em = emit_zmodular(sld)
    assert em.normalizer == taft_normalizer(3)
    path = tmp_path / "n.json"
    io.save_datum(em.datum, str(path))
    back = io.load_datum(str(path))
    assert isinstance(back, ModularDatum)
    assert back.s_matrix == em.datum.s_matrix
    assert back.t_diag == em.datum.t_diag


def test_format_errors():
    with pytest.raises(io.FormatError):
        per_entry.cyc_from_json({"coeffs": ["1"]})
    with pytest.raises(io.FormatError):
        io.datum_from_json({"labels": ["a"], "unit": 0, "kind": "weird",
                            "S": io.matrix_to_json(CycMatrix.identity(1))})


# ---------------------------------------------------------------------------
# the slice reader against the entry-by-entry reader
# ---------------------------------------------------------------------------

def _entrywise(obj):
    """The reference reader: one CycNum per entry, from Fraction(c)."""
    return CycMatrix(obj["rows"], obj["cols"],
                     [per_entry.from_coeffs(e["conductor"], [Fraction(c) for c in e["coeffs"]])
                      for row in obj["entries"] for e in row])


def _scalar(n, *coeffs):
    return {"conductor": n, "coeffs": list(coeffs)}


@pytest.mark.parametrize("text", [" 3", "+3", "2/4", "0.5", "1e2", "-0", 7, "-12/8", "10/5"])
def test_non_canonical_coefficients_read_as_fractions(text):
    obj = {"rows": 2, "cols": 2,
           "entries": [[_scalar(3, text, "1"), _scalar(3, "0", text)],
                       [_scalar(3, "-1/3", text), _scalar(3, text, text)]]}
    got = per_entry.matrix_from_json(obj)
    want = _entrywise(obj)
    assert got == want and got.entries == want.entries
    assert per_entry.cyc_from_json(obj["entries"][1][0]) == want[1, 0]


def test_mixed_conductor_matrix_reads_as_its_scalars():
    entries = [[_scalar(1, "2"), _scalar(3, "1/2", "-1")],
               [_scalar(4, "0", "3/4"), _scalar(12, "1", "0", "-1", "1/5")]]
    obj = {"rows": 2, "cols": 2, "entries": entries}
    got = per_entry.matrix_from_json(obj)
    want = CycMatrix(2, 2, [per_entry.cyc_from_json(e) for row in entries for e in row])
    assert got.conductor == 12
    assert got == want
    assert [(e.num, e.den) for e in got.entries] == [(e.num, e.den) for e in want.entries]


def _round_trip(datum, path):
    obj = json.loads(json.dumps(io.datum_to_json(datum)))
    assert io.datum_to_json(io.datum_from_json(obj)) == obj
    io.save_datum(datum, str(path))
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(obj, indent=1) + "\n"
    assert json.loads(text) == obj
    assert io.datum_to_json(io.load_datum(str(path))) == obj


def test_every_fixture_world_round_trips(taft_verified, pointed_verified, tmp_path):
    """The raw, bold and emitted data of the session fixtures, written and
    read back: the objects and the saved bytes are unchanged, and the bytes
    are those of the per-entry reference object."""
    cases = [(taft_double(d), t.result) for d, t in taft_verified.items()]
    cases += [(pointed_cyclic(*key), res) for key, res in pointed_verified.items()]
    for k, (raw, res) in enumerate(cases):
        data = [raw, emit_zmodular(res.sldeg if res.sldeg is not None else res.world).datum]
        if res.sldeg is not None:
            data.append(res.sldeg.world.raw)
        for m, datum in enumerate(data):
            path = tmp_path / f"{k}-{m}.json"
            _round_trip(datum, path)
            assert path.read_text() == json.dumps(per_entry.datum_to_json(datum), indent=1) + "\n"


def test_load_datum_builds_no_scalar_per_matrix_entry(tmp_path, monkeypatch):
    path = tmp_path / "t5.json"
    raw = taft_double(5)
    io.save_datum(raw, str(path))
    calls = []
    real_init = CycNum.__init__

    def init(self, *args, **kwargs):
        calls.append("init")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CycNum, "__init__", init)
    back = io.load_datum(str(path))
    monkeypatch.undo()
    assert len(calls) <= len(raw.twists) < raw.size ** 2
    assert back.s_matrix == raw.s_matrix and back.twists == raw.twists


# ---------------------------------------------------------------------------
# the writer against the per-entry reference
# ---------------------------------------------------------------------------

PHI = {1: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 6, 12: 4}
BIG = 1 << 70   # past int64: the matrix is held in an object array
# number-like strings of up to 38 characters: long digit runs, fractions,
# decimals and e/E exponents, with _ anywhere a digit may stand
NUMBER_TEXT = st.from_regex(r"[-+]?[0-9_]{1,20}([./][0-9_]{1,8})?([eE][-+]?[0-9_]{1,6})?",
                            fullmatch=True)
LABELS = st.text(alphabet=st.sampled_from('ab"\\/ \n\té€😀\x00_eE0123456789'),
                 max_size=40) | NUMBER_TEXT


@st.composite
def cyc_numbers(draw, big):
    n = draw(st.sampled_from(sorted(PHI)))
    coeffs = draw(st.lists(st.integers(-BIG if big else -9, BIG if big else 9),
                           min_size=PHI[n], max_size=PHI[n]))
    return CycNum(n, tuple(coeffs), draw(st.sampled_from([1, 2, 6, BIG + 1])))


@st.composite
def data(draw):
    """Raw and normalized data of size 1..4 with any slices: int64 or object,
    any denominator, zero entries or a zero matrix, twists at mixed
    conductors, labels that need escaping, with or without duality data."""
    k = draw(st.integers(1, 4))
    n = draw(st.sampled_from(sorted(PHI)))
    big = draw(st.booleans())
    bound = BIG if big else 9
    values = draw(st.lists(st.integers(-bound, bound), min_size=PHI[n] * k * k,
                           max_size=PHI[n] * k * k))
    if draw(st.booleans()):
        values = [0] * len(values)
    num = int_array(values).reshape(PHI[n], k, k)
    s = CycMatrix.from_slices(n, num, draw(st.sampled_from([1, 3, 12, BIG + 1])))
    labels = tuple(draw(st.lists(LABELS, min_size=k, max_size=k, unique=True)))
    unit = draw(st.integers(0, k - 1))
    scalars = tuple(draw(st.lists(cyc_numbers(big), min_size=k, max_size=k)))
    if draw(st.booleans()):
        return ModularDatum(labels, unit, s, scalars)
    duality = draw(st.none() | st.permutations(range(k)).map(tuple))
    signs = None   # signs need a duality
    if duality is not None:
        signs = draw(st.none() | st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k)
                     .map(tuple))
    kind = draw(st.sampled_from(["raw-full", "raw-bold"]))
    return RawDatum(labels, unit, s, scalars, kind, duality, signs)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datum=data())
def test_saved_bytes_are_the_indented_dump_of_the_per_entry_object(datum, tmp_path):
    obj = per_entry.datum_to_json(datum)
    path = tmp_path / "d.json"
    io.save_datum(datum, str(path))
    assert path.read_bytes() == (json.dumps(obj, indent=1) + "\n").encode()
    assert io.datum_to_json(datum) == obj
    assert per_entry.datum_to_json(io.load_datum(str(path))) == obj


def test_save_datum_does_not_use_the_pure_python_encoder(tmp_path, monkeypatch):
    # json.dumps with an indent runs json.encoder._make_iterencode, a Python loop
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=1)
    res = verify_raw(taft_double(3))
    for datum in (taft_double(3), res.sldeg.world.raw, emit_zmodular(res.sldeg).datum):
        io.save_datum(datum, str(tmp_path / "d.json"))


def test_load_datum_parses_each_coefficient_text_once(tmp_path, monkeypatch):
    res = verify_raw(taft_double(5))
    real = io._ratio
    for datum in (taft_double(5), emit_zmodular(res.sldeg).datum):
        path = tmp_path / "d.json"
        io.save_datum(datum, str(path))
        obj = json.loads(path.read_text())
        texts = {c for row in obj["S"]["entries"] for e in row for c in e["coeffs"]}
        texts |= {c for t in obj.get("twists", obj.get("T")) for c in t["coeffs"]}
        calls = []
        monkeypatch.setattr(io, "_ratio", lambda c: calls.append(c) or real(c))
        io.load_datum(str(path))
        monkeypatch.undo()
        assert sorted(calls) == sorted(texts)


@pytest.mark.parametrize("where", ["conductor", "coeff"])
def test_a_boolean_is_not_an_integer_anywhere_in_a_matrix(where):
    # True hashes and compares like 1, so a set of values alone would let it in
    obj = io.matrix_to_json(taft_double(3).s_matrix)
    entry = obj["entries"][1][2]
    if where == "conductor":
        obj["entries"][0][0] = {"conductor": True, "coeffs": ["1"]}
    else:
        entry["coeffs"][0] = True
    with pytest.raises(io.FormatError, match="bool|True"):
        per_entry.matrix_from_json(obj)


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


def test_cli_generate_refuses_an_unknown_spec_key(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli(["generate", "pointed:n=7,a=1,k=2", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "'k='" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["generate", "taft:d=1000", "x.json"],
                                  ["generate", "taft:d=43", "x.json"],
                                  ["generate", "pointed:n=513", "x.json"],
                                  ["fusion", "pointed:n=5001", "d1", "d2"]])
def test_cli_refuses_a_family_past_the_array_budget(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "budget" in err
    assert not (tmp_path / "x.json").exists()


def test_the_family_budget_admits_the_largest_array_at_the_budget(tmp_path, capsys, monkeypatch):
    # the largest array of taft:d=4 is its (4, 12, 12) root slices, of its
    # oracle the (12, 12, 12) tensor; of pointed:n=7 both are (7, 7, 7)
    from modkit import matrix

    out = str(tmp_path / "x.json")
    monkeypatch.setattr(matrix, "TABLE_BYTES", 8 * 4 * 12 * 12)
    assert run_cli(["generate", "taft:d=4", out]) == 0
    assert run_cli(["generate", "taft:d=5", out]) == 2
    assert run_cli(["fusion", "taft:d=4", "(1,0)", "(2,1)"]) == 2
    monkeypatch.setattr(matrix, "TABLE_BYTES", 8 * 12 ** 3)
    assert run_cli(["fusion", "taft:d=4", "(1,0)", "(2,1)"]) == 0
    monkeypatch.setattr(matrix, "TABLE_BYTES", 8 * 7 ** 3)
    assert run_cli(["fusion", "pointed:n=7", "d1", "d2"]) == 0
    assert run_cli(["generate", "pointed:n=9", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error:") for line in err)
    assert "taft:d=5" in err[0] and "fusion oracle of taft:d=4" in err[1]
    assert "pointed:n=9" in err[2]


def test_cli_generate_refuses_a_repeated_spec_key(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli(["generate", "taft:d=3,d=5", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "'d='" in err
    assert not out.exists()


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
    emit_line = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("emit:")]
    assert len(emit_line) == 1 and emit_line[0].endswith("; normalizer from the Gauss sum)")
    datum = io.load_datum(str(emitted))
    assert isinstance(datum, ModularDatum)
    from modkit.checks import check_axioms
    assert check_axioms(datum).passed


def test_cli_emit_does_not_import_sympy(tmp_path):
    # sympy backs only the tests' reference square root; importing it costs a
    # third of a second and about 30 MB.  Taft data take the Gauss route, and
    # the q16 bold datum, which fails vafa_anomaly, the exact search
    import modkit
    taft, q16 = tmp_path / "taft5.json", tmp_path / "q16bold.json"
    io.save_datum(taft_double(5), str(taft))
    io.save_datum(sl2_q16_counterexample()[1], str(q16))
    code = ("import sys\n"
            "from modkit.cli import main\n"
            f"rc = main(['verify', {str(taft)!r}, '--emit-zmodular', {str(tmp_path / 'z.json')!r},"
            f" '--out', {str(tmp_path / 'r.json')!r}])\n"
            "assert rc == 0, rc\n"
            f"rc = main(['verify', {str(q16)!r}, '--emit-zmodular', {str(tmp_path / 'q.json')!r},"
            f" '--out', {str(tmp_path / 'qr.json')!r}])\n"
            "assert rc == 1, rc\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'sympy']\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "normalizer z16 + z16^3 - z16^5 - z16^7; normalizer from the square-root search" \
        in proc.stderr


def test_cli_report_roundtrip(tmp_path, capsys):
    full = tmp_path / "full.json"
    rep = tmp_path / "rep.json"
    assert run_cli(["generate", "pointed:n=5,a=2,k0=1", str(full)]) == 0
    assert run_cli(["verify", str(full), "--out", str(rep)]) == 0
    capsys.readouterr()
    assert run_cli(["report", str(rep), "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "classification" in out and "N-modular" in out


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_cli_verify_encodes_the_report_once(tmp_path, capsys, monkeypatch, out, pretty):
    datum, rep = tmp_path / "p.json", tmp_path / "rep.json"
    io.save_datum(pointed_cyclic(5, 2, 1), str(datum))
    entries = io.report_to_json(verify_raw(pointed_cyclic(5, 2, 1)).report, "N-modular")
    want = json.dumps([{**e, "ms": 0} for e in entries], indent=1) + "\n"
    real, calls = json.dumps, []

    def dumps(obj, *args, **kwargs):
        calls.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    argv = ["verify", str(datum)] + ["--out", str(rep)] * out + ["--pretty"] * pretty
    assert run_cli(argv) == 0
    monkeypatch.undo()
    assert len(calls) == (0 if pretty and not out else 1)
    text = capsys.readouterr().out
    zero_ms = re.compile(r'"ms": [0-9.e-]+')
    if out:
        assert zero_ms.sub('"ms": 0', rep.read_text()) == want
    if pretty:
        assert text.startswith("classification") and "N-modular" in text
    else:
        assert zero_ms.sub('"ms": 0', text) == ("" if out else want)


def test_cli_main_builds_its_parser_once_and_carries_nothing_over(tmp_path, capsys):
    from modkit.cli import build_parser
    datum, bold, rep = tmp_path / "t.json", tmp_path / "b.json", tmp_path / "rep.json"
    q16 = tmp_path / "q16.json"
    io.save_datum(sl2_q16_counterexample()[0], str(q16))   # fails at epsilon_shape
    assert build_parser() is build_parser()
    steps = [(["generate", "taft:d=3", str(datum)], 0),
             (["verify", str(datum), "--pretty"], 0),
             (["verify", str(datum)], 0),
             (["verify", str(q16), "--out", str(rep)], 1),
             (["verify", str(datum)], 0),
             (["fusion", "taft:d=3", "(2,0)", "(2,0)", "--compare"], 0),
             (["fusion", "taft:d=3", "(2,0)", "(2,0)"], 0),
             (["reduce", str(datum), str(bold)], 0),
             (["verify", str(bold), "--pretty"], 0),
             (["report", str(rep)], 1),
             (["verify", str(bold)], 0)]
    outs = []
    for argv, code in steps:
        assert run_cli(argv) == code, argv
        outs.append(capsys.readouterr())
    for i in (2, 4, 10):   # no --pretty after one: JSON, and the classification on stderr
        assert json.loads(outs[i].out)[0]["check"] == "classification"
        assert outs[i].err.startswith("classification: Z-modular")
    for i in (1, 8):
        assert outs[i].out.startswith("classification") and outs[i].err == ""
    assert outs[3].out == "" and json.loads(rep.read_text())[0]["detail"] == "fail"
    assert outs[5].out.startswith("family") and outs[6].out.count("\n") == 1
    zero_ms = re.compile(r'"ms": [0-9.e-]+')
    assert zero_ms.sub("", outs[4].out) == zero_ms.sub("", outs[2].out)


MALFORMED_REPORTS = {
    "entry-not-object": [1],
    "entry-without-check": [{}],
    "check-not-string": [{"check": 3, "status": "pass"}],
    "status-unknown": [{"check": "a", "status": "ok"}],
    "status-list": [{"check": "a", "status": ["pass"]}],
    "not-a-list": {"check": "a", "status": "pass"},
}


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
@pytest.mark.parametrize("which", sorted(MALFORMED_REPORTS))
def test_cli_report_rejects_malformed_entries_with_one_error_line(tmp_path, capsys, which,
                                                                   pretty):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(MALFORMED_REPORTS[which]))
    assert run_cli(["report", str(path)] + pretty) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("verb", ["report", "verify"])
@pytest.mark.parametrize("text", [b"\xff\xfe bad", b"[" * 100000], ids=["not-utf8", "deep"])
def test_cli_rejects_undecodable_json_with_one_error_line(tmp_path, capsys, verb, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert run_cli([verb, str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


REPORT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.floats(),
              st.sampled_from(["pass", "fail", "skipped"]),
              st.text(alphabet="abc pasfilkd", max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["check", "status", "detail", "witness", "ms"]),
                        inner, max_size=5)),
    max_leaves=12)
REPORT_ENTRIES = st.fixed_dictionaries(
    {"check": st.text(alphabet="abc_", max_size=4),
     "status": st.sampled_from(["pass", "fail", "skipped"])},
    optional={"detail": REPORT_VALUES, "witness": REPORT_VALUES, "ms": REPORT_VALUES})


@settings(max_examples=60, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(entries=st.one_of(REPORT_VALUES, st.lists(st.one_of(REPORT_ENTRIES, REPORT_VALUES),
                                                 max_size=4)),
       pretty=st.booleans())
def test_fuzzed_report_ends_with_a_rendering_or_one_error_line(entries, pretty,
                                                               tmp_path_factory):
    """``modkit report`` on any small JSON value (well-formed entries mixed
    with arbitrary lists, objects and scalars) exits with 0, 1 or 2 and never
    with a traceback; exit 2 comes with one ``error:`` line.  Integers stay
    within -3..8 and strings within four characters, as in the datum fuzz."""
    path = tmp_path_factory.mktemp("fuzz") / "report.json"
    path.write_text(json.dumps(entries))
    out, err = io_text.StringIO(), io_text.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["report", str(path)] + (["--pretty"] if pretty else []))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_verify_degenerate_pointed(tmp_path, capsys):
    p = tmp_path / "deg.json"
    assert run_cli(["generate", "pointed:n=9,a=3,k0=0", str(p)]) == 0
    capsys.readouterr()
    code = run_cli(["verify", str(p)])
    entries = json.loads(capsys.readouterr().out)
    by = {e["check"]: e for e in entries}
    assert code == 1
    assert by["classification"]["detail"] == "degenerate"


@pytest.mark.parametrize("d", [3, 4])
def test_cli_fusion_on_a_datum_file_is_the_folded_oracle_row(tmp_path, capsys, d):
    # a datum file has no oracle, so fusion takes the S-matrix route on the
    # default representatives: sign(x) sign(y) times the Verlinde row, which
    # is the oracle's full row folded through the quotient
    raw, oracle = taft_double(d), taft_fusion_tensor(d)
    path = tmp_path / "t.json"
    io.save_datum(raw, str(path))
    world, sldeg = resolve_world(raw)
    signed = sldeg.signed_reps()
    for x, xl in enumerate(raw.labels):
        for y, yl in enumerate(raw.labels):
            row = per_entry.fold(oracle.table[x, y], signed)
            want = [(world.labels[k], m) for k, m in enumerate(row) if m]
            assert run_cli(["fusion", str(path), xl, yl]) == 0
            assert capsys.readouterr().out == _format_multiset(want) + "\n", (xl, yl)


@pytest.mark.parametrize("which", ["zero", "fixed-point"])
def test_cli_fusion_compare_fails_a_bad_oracle_in_one_line(monkeypatch, capsys, which):
    import modkit.families as families

    bad, message = bad_taft3_oracles()[which]
    monkeypatch.setattr(families, "taft_fusion_tensor", lambda d: bad)
    assert run_cli(["fusion", "taft:d=3", "(2,1)", "(1,1)", "--compare"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fusion oracle failed: {message}"]


@pytest.mark.parametrize("route", ["auto", "family", "verlinde"])
def test_cli_fusion_has_no_oracle_option(capsys, route):
    assert run_cli(["fusion", "taft:d=3", "(2,0)", "(2,0)", "--oracle", route]) == 2
    assert "--oracle" in capsys.readouterr().err


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
    "s-conductor-bool": lambda obj: obj["S"]["entries"][2][0].__setitem__("conductor", True),
    # a prime conductor: phi by trial division would take O(sqrt(n)) steps
    "conductor-huge-prime": lambda obj: obj["twists"][1].__setitem__("conductor", 2 ** 89 - 1),
    "s-conductor-huge-prime": lambda obj: obj["S"]["entries"][3][3].__setitem__(
        "conductor", 2 ** 89 - 1),
    "s-coeff-bool": lambda obj: obj["S"]["entries"][0][4]["coeffs"].__setitem__(1, True),
    "coeffs-string": lambda obj: obj["S"]["entries"][1][2].__setitem__("coeffs", "12"),
    "duality-float": lambda obj: obj["duality"].__setitem__(1, 2.5),
    "duality-string": lambda obj: obj.__setitem__("duality", "021543"),
    "duality-signs-float": lambda obj: obj.__setitem__("duality_signs", [1.0] * 6),
    # S entries are `rows` lists of `cols` scalars; the total count alone is not enough
    "ragged-rows": lambda obj: obj["S"]["entries"][0].append(obj["S"]["entries"][1].pop()),
    "row-not-list": lambda obj: obj["S"]["entries"].__setitem__(2, {"conductor": 3}),
    # labels are a list of strings: neither a string of characters nor integers
    "labels-string": lambda obj: obj.__setitem__("labels", "abcdef"),
    "labels-ints": lambda obj: obj.__setitem__("labels", [1, 2, 3, 4, 5, 6]),
    # Fraction would write out 10**exponent: seconds and megabytes for 11 characters
    "exponent-huge": lambda obj: obj["S"]["entries"][0][0]["coeffs"].__setitem__(0, "1e9999999"),
    "exponent-huge-negative": lambda obj: obj["twists"][0]["coeffs"].__setitem__(0, "-1E-9999999"),
    "exponent-underscores": lambda obj: obj["S"]["entries"][1][1]["coeffs"].__setitem__(
        0, "1e9_999_999"),
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


@pytest.mark.parametrize("signs", [[1], [1, 1], [1, 1, 1, 1], [1, 2, 1], "no duality"])
def test_bold_datum_with_bad_duality_signs_exits_2(tmp_path, capsys, signs):
    """``duality_signs`` of the wrong length, with a value other than +-1, or
    without a ``duality``, on the 3-label Taft d=3 bold datum."""
    obj = io.datum_to_json(
        reduce_slightly_degenerate(taft_double(3), reps=taft_J_indices(3)).world.raw)
    assert len(obj["labels"]) == 3 and "duality_signs" in obj
    if signs == "no duality":
        del obj["duality"]
    else:
        obj["duality_signs"] = signs
    path = tmp_path / "bold.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["verify", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "duality" in err[0]


def test_a_conductor_is_refused_unfactored_only_when_phi_exceeds_the_count():
    # the reader refuses a conductor n > 2 c^2 for c coefficients without
    # computing phi(n): sound because phi(n) >= sqrt(n / 2) for every n
    assert all(2 * euler_phi(n) ** 2 >= n for n in range(1, 20001))


@pytest.mark.parametrize("c", ["1e2", "1e4300", "-3.5E-2", " 1_0e0_2 "])
def test_exponent_up_to_the_int_digit_limit_reads_as_fraction(c):
    assert per_entry.cyc_from_json({"conductor": 1, "coeffs": [c]}) == Fraction(c)


@pytest.mark.parametrize("conductor", [0, -3])
def test_scalar_constructors_reject_conductor_below_one(conductor):
    with pytest.raises(ValueError):
        CycNum(conductor, (1,), 1)
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


def _zero_dimension():
    obj = io.datum_to_json(taft_double(3))
    obj["S"]["entries"][0][1] = obj["S"]["entries"][1][0] = ZERO
    del obj["duality"]
    return obj


def _zero_twist():
    obj = io.datum_to_json(taft_double(3))
    obj["twists"][1] = ZERO
    return obj


DEGENERATE = {"zero-dimension": _zero_dimension, "zero-twist": _zero_twist,
              "zero-global-dimension": zero_global_dimension}


@pytest.mark.parametrize("verb", ["verify", "reduce", "fusion"])
@pytest.mark.parametrize("which", sorted(DEGENERATE))
def test_cli_fails_degenerate_datum_without_traceback(tmp_path, capsys, which, verb):
    obj = DEGENERATE[which]()
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    argv = {"verify": ["verify", str(path)],
            "reduce": ["reduce", str(path), str(tmp_path / "out.json")],
            "fusion": ["fusion", str(path), obj["labels"][0], obj["labels"][-1]]}[verb]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    if verb == "verify":
        entries = json.loads(captured.out)
        assert entries[0]["check"] == "classification"
        assert entries[0]["detail"] == "fail"
        if which == "zero-global-dimension":
            # a zero D * dim_r(unit_bar) is its own check, not a bar failure
            failed = [(e["check"], e["detail"]) for e in entries[1:] if e["status"] == "fail"]
            assert failed == [("global_dimension_nonzero", "D * dim_r(unit_bar) = 0")]
    else:
        assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["generate", "taft:d=3", "{out}"],
                                  ["verify", "{t3}", "--out", "{out}"],
                                  ["verify", "{t3}", "--emit-zmodular", "{out}"],
                                  ["reduce", "{t3}", "{out}"]],
                         ids=["generate", "verify-out", "verify-emit", "reduce"])
def test_cli_exits_2_with_one_error_line_when_the_output_cannot_be_written(tmp_path, capsys,
                                                                            argv):
    t3 = tmp_path / "t3.json"
    io.save_datum(taft_double(3), str(t3))
    out = tmp_path / "missing" / "x.json"   # its directory does not exist
    assert run_cli([a.format(t3=t3, out=out) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("flag", ["--out", "--emit-zmodular"])
def test_cli_verify_refuses_an_unwritable_output_before_verifying(tmp_path, capsys, monkeypatch,
                                                                  flag):
    import modkit.cli as cli
    calls = []
    monkeypatch.setattr(cli, "verify_raw", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "verify_normalized", lambda *a, **k: calls.append(a))
    t3 = tmp_path / "t3.json"
    io.save_datum(taft_double(3), str(t3))
    assert run_cli(["verify", str(t3), flag, str(tmp_path / "missing" / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and calls == []
    assert run_cli(["verify", str(t3), flag, str(tmp_path)]) == 2   # a directory
    assert calls == []


def test_cli_verify_leaves_no_file_when_nothing_is_emitted(tmp_path, capsys):
    # the q16 full datum fails before a world is built, so nothing is emitted
    q16 = tmp_path / "q16.json"
    io.save_datum(sl2_q16_counterexample()[0], str(q16))
    fresh, kept, link = tmp_path / "fresh.json", tmp_path / "kept.json", tmp_path / "link.json"
    kept.write_text("older bytes\n")
    link.symlink_to(tmp_path / "target.json")   # dangling: a write would create its target
    for path in (fresh, kept, link):
        assert run_cli(["verify", str(q16), "--emit-zmodular", str(path)]) == 1
        assert "emit: no world to normalize" in capsys.readouterr().err
    assert not fresh.exists() and kept.read_text() == "older bytes\n"
    assert link.is_symlink() and not (tmp_path / "target.json").exists()


@pytest.mark.parametrize("verb", ["verify", "reduce", "fusion"])
def test_cli_ends_with_one_error_line_when_split_primes_run_out(tmp_path, capsys, monkeypatch,
                                                                  verb):
    from modkit import matrix, verlinde

    def exhausted(n, bound):
        raise OverflowError(f"conductor {n} has only 0 split primes below 2^21; "
                            f"their product cannot hold this exact product")

    path = tmp_path / "t.json"
    argv = {"verify": ["verify", str(path)],
            "reduce": ["reduce", str(path), str(tmp_path / "out.json")],
            "fusion": ["fusion", str(path), "(1,0)", "(2,0)"]}[verb]
    io.save_datum(taft_double(3), str(path))
    with monkeypatch.context() as mp:
        mp.setattr(matrix, "split_primes", exhausted)
        mp.setattr(verlinde, "split_primes", exhausted)
        outcomes = [(run_cli(argv), capsys.readouterr(), 3, 0)]
    # a 6,951-byte file at conductor 3027, which has only 67 split primes
    # below 2^21: they are counted, and no table is built
    path.write_text(json.dumps(taft3_at_conductor(1009)))
    outcomes.append((run_cli(argv), capsys.readouterr(), 3027, 67))
    for code, captured, n, count in outcomes:
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"error: conductor {n} has only {count} split "
                                             f"primes below 2^21; their product cannot hold "
                                             f"this exact product"]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("p, n, count, size", [(601, 1803, 59, "1,359,360,000"),
                                              (701, 2103, 70, "2,195,200,000")],
                         ids=["p601", "p701"])
def test_cli_refuses_split_tables_past_the_budget_in_one_line(tmp_path, capsys, p, n, count,
                                                              size):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(taft3_at_conductor(p)))
    assert run_cli(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: conductor {n} needs {count} split primes, "
                                         f"whose tables would take {size} bytes, past the "
                                         f"budget of 1,073,741,824 bytes"]


def swapped_duality(raw, i, j):
    """``raw`` with the supplied duals of labels i and j swapped."""
    dual = list(raw.duality)
    dual[i], dual[j] = dual[j], dual[i]
    return RawDatum(raw.labels, raw.unit, raw.s_matrix, raw.twists, raw.kind, tuple(dual),
                    raw.duality_signs)


def test_cli_fails_a_wrong_supplied_duality_without_traceback(tmp_path, capsys):
    # Taft d=3 with the duals of (1,1) and (2,1) swapped: still a permutation,
    # but not the duality the characters define
    path = tmp_path / "d.json"
    io.save_datum(swapped_duality(taft_double(3), 1, 4), str(path))
    assert run_cli(["verify", str(path)]) == 1
    entries = json.loads(capsys.readouterr().out)
    assert [(e["check"], e["witness"]) for e in entries if e["status"] == "fail"] == \
        [("classification", None), ("duality", {"at": 1, "label": "(1,1)"})]
    for argv in (["reduce", str(path), str(tmp_path / "out.json")],
                 ["fusion", str(path), "(1,1)", "(2,1)"]):
        assert run_cli(argv) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


TRANSPOSABLE = {"taft3": lambda: taft_double(3), "taft4": lambda: taft_double(4),
                "taft5": lambda: taft_double(5), "pointed5,1,0": lambda: pointed_cyclic(5, 1, 0),
                "pointed5,2,1": lambda: pointed_cyclic(5, 2, 1)}


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(sorted(TRANSPOSABLE)), data=st.data())
def test_a_transposed_supplied_duality_fails_at_its_first_moved_label(which, data):
    # the characters of these data are distinct, so they define one duality
    # and any transposition of it contradicts S at both labels it moves
    raw = TRANSPOSABLE[which]()
    i, j = sorted(data.draw(st.lists(st.integers(0, raw.size - 1), min_size=2, max_size=2,
                                     unique=True)))
    wrong = swapped_duality(raw, i, j)
    res = verify_raw(wrong)
    assert res.exit_code == 1
    assert res.report["duality"].witness == {"at": i, "label": raw.labels[i]}
    with pytest.raises(DegeneracyError, match="supplied duality"):
        resolve_world(wrong)


def rank_two(a, b):
    """The full datum S = [[1, a], [a, b]], twists (1, zeta_3), self-dual:
    its squared norms are 1 and a^2."""
    one = CycNum.from_rational(1)
    return RawDatum(("u", "x"), 0, CycMatrix.from_rows([[one, a], [a, b]]),
                    (one, root_of_unity(3)), KIND_FULL, (0, 1))


def interval_verdict(world):
    """The positivity check's status, detail and witness index, from the
    interval reference on the world's squared norms."""
    for x, q in enumerate(world.sqnorm.entries):
        try:
            if not intervals.is_totally_positive(q):
                return "fail", "", x
        except ValueError:   # outside the real subfield
            return "fail", "not real", x
    return "pass", "", None


def test_cli_positivity_agrees_with_the_interval_reference(tmp_path, monkeypatch):
    # squared norms are decided exactly, so a precision setting reaches nothing
    monkeypatch.setenv("MODKIT_PRECISION_BITS", "abc")
    raws = [galois_conjugate(taft_double(5), j) for j in (1, 2, 3, 4)]
    raws += [galois_conjugate(taft_double(7), j) for j in (1, 3)]
    raws += [pointed_cyclic(7, 2, 1), sl2_q16_counterexample()[1]]
    sqrt2 = root_of_unity(8) + root_of_unity(8, 7)
    raws += [rank_two(sqrt2 - 1, CycNum.from_rational(-1)), rank_two(root_of_unity(8), sqrt2)]
    verdicts = []
    for k, raw in enumerate(raws):
        path, out = tmp_path / f"{k}.json", tmp_path / f"{k}.report.json"
        io.save_datum(raw, str(path))
        assert run_cli(["verify", str(path), "--out", str(out)]) in (0, 1)
        entry = next(e for e in json.loads(out.read_text())
                     if e["check"] == "sqnorm_totally_positive")
        status, detail, at = interval_verdict(resolve_world(io.load_datum(str(path)))[0])
        assert (entry["status"], entry["detail"]) == (status, detail)
        assert (entry["witness"] or {}).get("at") == at
        verdicts.append(status)
    assert verdicts.count("fail") == 1   # the rank-2 datum with a^2 = i


# ---------------------------------------------------------------------------
# a bounded fuzz of the reader
# ---------------------------------------------------------------------------

def _positions(node, path=()):
    """The path to every value below ``node`` in a JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, value in items:
        out.append(path + (key,))
        out.extend(_positions(value, path + (key,)))
    return out


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


WRONG_TYPES = st.one_of(
    st.text(alphabet="0123456789-+/._eE x", max_size=40) | NUMBER_TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.dictionaries(st.sampled_from(["conductor", "coeffs", "rows"]),
                    st.integers(-3, 3), max_size=2),
    st.lists(st.one_of(st.integers(-3, 8), st.text(max_size=2)), max_size=3),
)


def _mutate(obj, data):
    kind = data.draw(st.sampled_from(["drop", "retype", "ragged", "truncate", "big"]))
    paths = _positions(obj)
    if kind == "drop":
        keyed = [p for p in paths if isinstance(_parent(obj, p), dict)]
        path = data.draw(st.sampled_from(keyed))
        del _parent(obj, path)[path[-1]]
    elif kind == "retype":
        path = data.draw(st.sampled_from(paths))
        _parent(obj, path)[path[-1]] = data.draw(WRONG_TYPES)
    elif kind == "ragged":
        rows = [p for p in paths if len(p) == 3 and p[:2] == ("S", "entries")
                and isinstance(_parent(obj, p)[p[-1]], list)
                and _parent(obj, p)[p[-1]]]
        if rows:
            path = data.draw(st.sampled_from(rows))
            _parent(obj, path)[path[-1]].pop()
    elif kind == "big":
        # an integer value, or a coefficient (an integer written as a string)
        ints = [p for p in paths if type(_parent(obj, p)[p[-1]]) is int
                or (len(p) > 1 and p[-2] == "coeffs")]
        if ints:
            path = data.draw(st.sampled_from(ints))
            _parent(obj, path)[path[-1]] = data.draw(st.integers(-(1 << 70), 1 << 70))
    else:
        scalars = [p for p in paths if p[-1] == "coeffs"
                   and isinstance(_parent(obj, p)[p[-1]], list)]
        if scalars:
            path = data.draw(st.sampled_from(scalars))
            coeffs = _parent(obj, path)[path[-1]]
            del coeffs[data.draw(st.integers(0, max(len(coeffs) - 1, 0))):]


@settings(max_examples=60, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_taft_datum_ends_with_a_verdict_or_one_error_line(data, tmp_path_factory):
    """``modkit verify`` on a Taft d=3 datum with one to three mutations (a
    key dropped; a string, float, bool, dict or list put where another type
    belongs; a row of S made ragged; a ``coeffs`` list truncated; an integer
    of magnitude up to 2^70 put where an integer or a coefficient stands)
    exits with 0, 1 or 2 and never with a traceback; exit 2 comes with one
    ``error:`` line.

    Strings run to 40 characters, number-like ones included (long digit
    runs, fractions, e/E exponents, underscores); exponents past Python's
    limit on int digits are tested apart, among the hostile files above."""
    obj = io.datum_to_json(taft_double(3))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(obj, data)
    path = tmp_path_factory.mktemp("fuzz") / "datum.json"
    path.write_text(json.dumps(obj))
    out, err = io_text.StringIO(), io_text.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["verify", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from etlab import extremal, measures
from etlab.cli import _print_json, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_stdout_and_determinism(self, capsys):
        code, out1, _ = invoke(capsys, "table1")
        assert code == 0
        code, out2, _ = invoke(capsys, "table1")
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "k,R,H,D,ratio"
        assert len(lines) == 21
        row0 = lines[1].split(",")
        assert float(row0[1]) == pytest.approx(1.1, abs=1e-9)
        assert float(row0[2]) == pytest.approx(0.0986, abs=2e-3)
        assert float(row0[3]) == pytest.approx(0.3188, abs=2e-3)
        assert float(row0[4]) == pytest.approx(0.5765, abs=1e-3)

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = invoke(capsys, "table1", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("k,R,H,D,ratio")


class TestPhi:
    def test_near_zero_at_critical(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--L", "0", "--R", "1.8102")
        assert code == 0
        assert abs(float(out.strip())) < 1e-4

    def test_bad_domain_exit_2(self, capsys):
        code, _, err = invoke(capsys, "phi", "--L", "2", "--R", "1.5")
        assert code == 2 and "error:" in err

    def test_infinite_R_exit_2_without_a_warning(self, capsys):
        # numpy would warn on inf - inf in the integrand, before the domain error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(capsys, "phi", "--L", "0.5", "--R", "inf")
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestCheckPoly:
    def test_all_roots_at_one(self, capsys, tmp_path):
        doc = {"roots": [[1.0, 0.0]] * 8}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "check-poly", str(path))
        assert code == 0
        payload = json.loads(out.strip().split("\n")[-1])
        assert payload["D"] == pytest.approx(1.0)
        assert payload["H"] == pytest.approx(0.6931, abs=1e-4)
        assert payload["bound"] == pytest.approx(1.1774, abs=1e-4)
        assert payload["holds"] is True

    def test_coefficient_form(self, capsys, tmp_path):
        doc = {"coeffs": [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "check-poly", str(path))
        assert code == 0
        payload = json.loads(out.strip().split("\n")[-1])
        assert payload["D"] == pytest.approx(0.25, abs=1e-9)

    def test_huge_root_modulus_gives_finite_json(self, capsys, tmp_path):
        # (Re w - Re z)^2 overflows for |z| = 1e200; the true H is about 115.5
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"roots": [[1e200, 0.0], [1.0, 0.25]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = invoke(capsys, "check-poly", str(path))
        assert code in (0, 1)
        payload = json.loads(out.strip().split("\n")[-1], parse_constant=_reject_constant)
        assert payload["H"] == pytest.approx(0.25 * math.log(1e200) + 0.5 * math.log(2.0),
                                             rel=1e-5)  # printed to 6 digits

    @pytest.mark.parametrize("n", [16, 64])
    def test_tiny_roots_give_finite_json(self, capsys, tmp_path, n):
        # 1e300 z^n + 1e-300 has roots of modulus (1e-600)^(1/n), 3e-38 and
        # 4e-10; unscaled they came out as exact zeros and the exit code was 2
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"coeffs": [[1e-300, 0.0]] + [[0.0, 0.0]] * (n - 1)
                                    + [[1e300, 0.0]]}))
        code, out, _ = invoke(capsys, "check-poly", str(path))
        assert code == 0
        payload = json.loads(out.strip().split("\n")[-1], parse_constant=_reject_constant)
        assert payload["H"] == pytest.approx(300.0 * math.log(10.0) / n, rel=1e-5)
        assert payload["D"] == pytest.approx(1.0 / n, rel=1e-5)

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "check-poly", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"roots": [[1.0, float("nan")]]},
        {"roots": [[float("inf"), 0.25], [1.0, 0.5]]},
        {"roots": [[1.0, 0.25]], "leading": [float("nan"), 0.0]},
        {"coeffs": [[1.0, 0.0], [float("nan"), 0.0], [1.0, 0.0]]},
    ])
    def test_non_finite_input_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check-poly", str(path))
        assert code == 2 and "error:" in err
        assert out == ""


class TestMissingKeys:
    @pytest.mark.parametrize("cmd, doc, message", [
        ("ganelius", {"diracs": [], "family": {"tag": "GridBacked", "params": {}}},
         "malformed document: missing key 'values'"),
        ("check-poly", {"roots": [{"modulus": 1.0, "angle": 0.25}]},
         "malformed document: missing entry 0"),
    ])
    def test_missing_key_is_named(self, capsys, tmp_path, cmd, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, cmd, str(path))
        assert code == 2 and out == ""
        assert err.strip() == f"error: {message}"


class TestExtremalCmd:
    def test_kind2_report(self, capsys):
        code, out, _ = invoke(capsys, "extremal", "--kind", "2", "--R", "2.0")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["h_tilde"] == pytest.approx(math.pi**2, abs=1e-4)
        assert payload["d_tilde"] == pytest.approx(math.pi * math.sqrt(3.0) - 2.0,
                                                   abs=1e-4)

    def test_kind_mismatch_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "extremal", "--kind", "3", "--R", "2.5")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("--kind", "3", "--R", "1.4", "--m", "0.2"), "--m"),
        (("--kind", "2", "--R", "2.0", "--m", "0.2"), "--m"),
        (("--kind", "1", "--R", "2.0"), "--R"),
    ])
    def test_flag_of_another_kind_rejected(self, capsys, argv, flag):
        code, out, err = invoke(capsys, "extremal", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err

    def test_density_csv_roundtrip(self, capsys, tmp_path):
        from etlab.measures import AdmissibleDistR, admissible_density_line
        # 2,001 grid points on [-span, span]; kind II's Diracs at -1 and 1 and
        # kind I's at 0 lie on the grid and are left out
        cases = [(("--kind", "2", "--R", "2.0"), AdmissibleDistR("II", 1.0, 2.0), 1999),
                 (("--kind", "1"), AdmissibleDistR("I", 1.0), 2000)]
        for argv, mu, rows in cases:
            target = tmp_path / "density.csv"
            code, _, _ = invoke(capsys, "extremal", *argv, "--emit-density", str(target))
            assert code == 0
            lines = target.read_text().strip().split("\n")
            assert lines[0] == "x,density" and len(lines) == 1 + rows
            xs, vals = zip(*((float(a), float(b)) for a, b in
                             (ln.split(",") for ln in lines[1:])))
            assert min(abs(x - p) for x in xs for p, _ in mu.dirac_positions_masses()) > 1e-3
            recomputed = admissible_density_line(mu, np.array(xs))
            assert np.allclose(recomputed, np.array(vals), atol=1e-5)


class TestSharpnessCmd:
    def test_small_chain(self, capsys):
        code, out, _ = invoke(capsys, "sharpness", "--m", "0.2", "--n", "128",
                              "--q", "256")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["rational"]["G"] > 0.5


class TestSimulate:
    def test_scenario_roundtrip(self, capsys, tmp_path):
        scenario = {"M": 0.0, "m": 0.2, "mass": 0.6, "n_cells": 256,
                    "iters": 20000, "tol": 1e-3}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        trace = tmp_path / "trace.csv"
        out_csv = tmp_path / "final.csv"
        code, out, _ = invoke(capsys, "simulate", str(path),
                              "--trace-out", str(trace), "--out", str(out_csv))
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["residual"] <= 1e-3
        header, *rows = out_csv.read_text().strip().split("\n")
        assert header == "center,value" and len(rows) == 256
        t_header, *t_rows = trace.read_text().strip().split("\n")
        assert t_header == "iteration,energy,residual" and len(t_rows) >= 1

    @pytest.mark.parametrize("patch", [
        {"m": float("nan")}, {"M": float("inf")}, {"mass": float("nan")},
        {"iters": -5}, {"iters": 0}, {"tol": float("nan")}, {"tol": -1.0},
    ])
    def test_bad_scenario_exit_2(self, capsys, tmp_path, patch):
        scenario = {"M": 0.0, "m": 0.2, "mass": 0.6, "n_cells": 256, "iters": 100}
        scenario.update(patch)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = invoke(capsys, "simulate", str(path),
                                "--out", str(tmp_path / "final.csv"))
        assert code == 2 and "error:" in err
        assert out == "" and not (tmp_path / "final.csv").exists()


class TestGaneliusCmd:
    def test_density_document(self, capsys, tmp_path):
        doc = {"diracs": [], "even": True,
               "family": {"tag": "UniformPlus",
                          "params": {"cos": [0.5], "sin": [0.0]}}}
        path = tmp_path / "density.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "ganelius", str(path))
        assert code == 0
        payload = json.loads(out.strip().split("\n")[-1])
        assert payload["holds"] is True
        assert payload["ratio"] == pytest.approx(1.0 / math.pi, abs=1e-4)

    def test_atomic_document_rejected(self, capsys, tmp_path):
        doc = {"atoms": [[0.0, 1.0]]}
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "ganelius", str(path))
        assert code == 2

    def test_nan_grid_values_rejected(self, capsys, tmp_path):
        doc = {"diracs": [], "family": {"tag": "GridBacked",
                                        "params": {"values": [1.0, float("nan"), 1.0, 1.0]}}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "ganelius", str(path))
        assert code == 2 and out == ""
        assert "finite" in err


class TestNonFiniteScale:
    @pytest.mark.parametrize("argv, message", [
        (("extremal", "--kind", "2", "--R", "1e300"), "Dirac mass that is not finite"),
        (("extremal", "--kind", "2", "--R", "inf"), "finite R > 1"),
        (("extremal", "--kind", "3", "--R", "nan"), "need R > 1"),
        (("extremal", "--kind", "1", "--lambda", "inf"), "scaling factor"),
        (("extremal", "--kind", "1", "--lambda", "nan"), "scaling factor"),
        (("extremal", "--kind", "2", "--R", "2", "--lambda", "1e300"), "scaling factor"),
        (("extremal", "--kind", "1", "--lambda", "1e-300"), "scaling factor"),
        (("extremal", "--kind", "2", "--R", "2", "--lambda", "1e-160"), "scaling factor"),
        (("periodize", "--R", "1e300"), "Dirac mass that is not finite"),
        (("periodize", "--R", "inf"), "finite R > 1"),
        (("periodize", "--R", "nan"), "need R > 1"),
        (("periodize", "--lambda", "inf"), "scaling factor"),
        (("periodize", "--R", "2", "--lambda", "nan"), "scaling factor"),
        (("periodize", "--lambda", "1e300"), "scaling factor"),
        (("periodize", "--lambda", "1e-300"), "scaling factor"),
    ])
    def test_rejected_with_exit_2(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


class TestPeriodizeCmd:
    def test_height_identity_report(self, capsys):
        code, out, _ = invoke(capsys, "periodize", "--R", "2.0", "--lambda", "0.1")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["difference"] <= 1e-3
        assert payload["r_ring"] is not None and payload["r_ring"] > 0.2


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_exit_2(self, capsys):
        assert run(["phi", "--L", "0"]) == 2

    @pytest.mark.parametrize("precision", ["-3", "0", "18", "six"])
    def test_bad_precision_rejected_before_the_command_runs(self, capsys, monkeypatch,
                                                             precision):
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr("etlab.discretize.sharpness_pipeline", never)
        code = run(["--precision", precision, "sharpness", "--m", "0.05", "--n", "1024",
                    "--q", "1024"])
        assert code == 2
        assert "--precision" in capsys.readouterr().err

    def test_precision_range_edges(self, capsys):
        for precision in ("1", "17"):
            code, out, _ = invoke(capsys, "--precision", precision, "phi", "--L", "0",
                                  "--R", "1.8102")
            assert code == 0 and math.isfinite(float(out))

    def test_seed_flag_is_gone(self, capsys):
        assert run(["--seed", "1", "table1"]) == 2

    def test_json_output_rejects_nan(self, capsys):
        with pytest.raises(ValueError):
            _print_json({"residual": float("nan")}, 6)
        assert capsys.readouterr().out == ""


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


# Documents for the fuzz below: well-formed ones with finite values, so that
# the commands run to the end, the same with one entry replaced by junk or
# dropped, ones built from non-finite values and wrong shapes, and junk.
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308])
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.just([]), st.just({}),
                 st.lists(st.floats(-2.0, 2.0), max_size=3), SPECIAL)
REAL = st.one_of(st.floats(-2.0, 2.0), SPECIAL)
PAIR = st.one_of(st.lists(REAL, min_size=2, max_size=2), st.lists(REAL, max_size=3), JUNK)


def _mutate(doc: dict, pick: int, drop: bool, junk):
    key = sorted(doc)[pick % len(doc)]
    out = dict(doc)
    if drop:
        del out[key]
    else:
        out[key] = junk
    return out


def _documents(valid, broken):
    return st.one_of(valid, st.builds(_mutate, valid, st.integers(0, 9), st.booleans(), JUNK),
                     broken, JUNK)


def _pairs(x, y, **size):
    return st.lists(st.tuples(x, y).map(list), **size)


POLY_DOCS = _documents(
    st.one_of(
        st.fixed_dictionaries(
            {"roots": _pairs(st.floats(0.2, 2.0), st.floats(-1.0, 1.0), min_size=1, max_size=5)},
            optional={"leading": st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0)).map(list)}),
        st.fixed_dictionaries(
            {"coeffs": _pairs(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), min_size=2,
                              max_size=6)})),
    st.fixed_dictionaries({}, optional={"roots": st.lists(PAIR, max_size=4), "leading": PAIR,
                                        "coeffs": st.lists(PAIR, max_size=4)}))
SCENARIO_DOCS = _documents(
    st.fixed_dictionaries(
        {"M": st.floats(-1.0, 1.0), "m": st.floats(0.0, 0.4),
         "n_cells": st.sampled_from([16, 32, 64]), "iters": st.integers(1, 20)},
        optional={"mass": st.floats(0.0, 1.5), "tol": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({k: st.one_of(REAL, JUNK)
                           for k in ("M", "m", "mass", "n_cells", "iters", "tol")}))
FAMILY_PARAMS = {
    "TypeI_T": st.fixed_dictionaries({"m": st.floats(0.0, 0.6)}),
    "TypeII_T": st.fixed_dictionaries(
        {"M": st.floats(0.0, 0.5), "R": st.floats(0.0, 0.5), "L": st.floats(0.0, 0.5)}),
    "Periodized": st.fixed_dictionaries(
        {"kind": st.sampled_from(["I", "II", "III", "IV"]), "lambda": st.floats(0.0, 1.0),
         "R": st.floats(0.5, 3.0), "L": st.floats(0.0, 1.0)}),
    "GridBacked": st.lists(st.floats(0.1, 2.0), min_size=1, max_size=32).map(
        lambda v: {"values": [x * len(v) / sum(v) for x in v]}),
    "UniformPlus": _pairs(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), min_size=1,
                          max_size=3).map(lambda cs: {"cos": [c for c, _ in cs],
                                                      "sin": [s for _, s in cs]}),
}
MEASURE_DOCS = _documents(
    st.one_of(*[params.map(lambda p, tag=tag: {"diracs": [], "even": True,
                                               "family": {"tag": tag, "params": p}})
                for tag, params in FAMILY_PARAMS.items()]),
    st.fixed_dictionaries({}, optional={
        "diracs": st.one_of(st.lists(PAIR, max_size=2), JUNK),
        "family": st.fixed_dictionaries(
            {"tag": st.one_of(st.sampled_from(sorted(FAMILY_PARAMS)), JUNK)},
            optional={"params": st.dictionaries(
                st.sampled_from(["m", "M", "R", "L", "kind", "lambda", "values", "cos", "sin"]),
                st.one_of(REAL, st.lists(REAL, max_size=4), JUNK))}),
        "atoms": st.one_of(st.lists(PAIR, max_size=3), JUNK),
        "even": JUNK, "total": REAL}))


class TestDocumentFuzz:
    """Any document gives exit 0, 1 or 2; a rejected one prints nothing on
    stdout, an accepted one ends stdout with a line of strict JSON."""

    def run_doc(self, tmp_path, capsys, command, doc, *extra):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, command, str(path), *extra)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
        else:
            payload = json.loads(out.strip().split("\n")[-1], parse_constant=_reject_constant)
            assert isinstance(payload, dict)

    fuzz = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

    @fuzz
    @given(doc=POLY_DOCS)
    @example(doc={"leading": [0.0, 1e308], "roots": [[1.0, 0.0]]})
    def test_check_poly(self, tmp_path, capsys, doc):
        self.run_doc(tmp_path, capsys, "check-poly", doc)

    @fuzz
    @given(doc=SCENARIO_DOCS)
    @example(doc={"M": 0.0, "m": 0.25, "n_cells": 16, "iters": 9,
                  "mass": 1.6935730096421992e-270})
    @example(doc={"M": 0.0, "m": 1.4172571284121228e-158, "n_cells": 16, "iters": 1})
    def test_simulate_scenario(self, tmp_path, capsys, doc):
        self.run_doc(tmp_path, capsys, "simulate", doc, "--out", str(tmp_path / "final.csv"))

    @fuzz
    @given(doc=MEASURE_DOCS)
    def test_ganelius_measure(self, tmp_path, capsys, doc):
        self.run_doc(tmp_path, capsys, "ganelius", doc, "--grid-n", "256")


NO_SCIPY = """
import json, sys
from etlab import measures
from etlab.cli import run
from etlab.extremal import make_admissible, periodize
rho = periodize(make_admissible(1.4, 0.1))
measures.height_T(rho, 256)
measures.discrepancy_mixed(rho)
path = sys.argv[1]
with open(path) as fh:
    measures.measure_from_json(json.load(fh))
codes = [run(["periodize", "--R", "1.4", "--lambda", "0.1"]), run(["ganelius", path])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_periodized_measures_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: building, reading and checking a
    # periodized measure loads no scipy module.  ganelius samples the
    # document's density and then exits 2, since without its Diracs the
    # density dips below 0.
    mu = measures.AdmissibleDistR("III", 0.1, 1.4, extremal.l_of_r(1.4))
    doc = {"diracs": [], "family": {"tag": "Periodized", "params": {
        "kind": mu.kind, "lambda": mu.lam, "R": mu.R, "L": mu.L}}}
    path = tmp_path / "periodized.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result == {"codes": [0, 2], "scipy": []}

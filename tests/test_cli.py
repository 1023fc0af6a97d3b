"""End-to-end tests of the command-line surface.

Every test drives main(argv) in-process and inspects exit codes, result
envelopes, payload files, and the zero-table cache.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from zlab.cli import main
from zlab.ztransform import RealityReport

GAUSS = '{"d": 0.5}'
C1 = '{"coeffs": [1.0]}'


def run(tmp_path, *argv):
    return main([*argv, "--outputdir", str(tmp_path)])


def envelope(tmp_path, command):
    paths = sorted(tmp_path.glob(f"{command}-*.json"))
    assert len(paths) == 1, f"expected one envelope, found {paths}"
    return json.loads(paths[0].read_text())


def read_csv(path):
    rows = list(csv.reader(io.StringIO(path.read_bytes().decode())))
    return rows[0], [r for r in rows[1:] if r]


# ---------- envelopes and hashing ----------


def test_p_eval_envelope_shape(tmp_path):
    assert run(tmp_path, "p-eval", "--params", '{"omega": 1.0}',
               "--t", "2.0") == 0
    env = envelope(tmp_path, "p-eval")
    assert env["command"] == "p-eval"
    assert env["version"].startswith("zlab-")
    assert env["content_hash"].startswith("sha256:")
    assert env["wall_time_s"] >= 0.0
    assert env["config"]["params"] == {"omega": 1.0, "d": 0.0,
                                       "coeffs": [], "m": 0}
    # pure drift: p(t) = e^{i omega t}
    p = env["payload"]["inline"]["p"]
    assert abs(p[0] - math.cos(2.0)) < 1e-15
    assert abs(p[1] - math.sin(2.0)) < 1e-15


def test_content_hash_reproducible_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(d1, "p-eval", "--params", GAUSS, "--t", "1.5") == 0
    assert run(d2, "p-eval", "--params", GAUSS, "--t", "1.5") == 0
    h1 = envelope(d1, "p-eval")["content_hash"]
    h2 = envelope(d2, "p-eval")["content_hash"]
    assert h1 == h2
    # a different input changes the hash
    d3 = tmp_path / "c"
    assert run(d3, "p-eval", "--params", GAUSS, "--t", "1.6") == 0
    assert envelope(d3, "p-eval")["content_hash"] != h1


def test_params_accepts_file_path(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text(GAUSS)
    assert run(tmp_path, "rho-mass", "--params", str(pfile)) == 0
    env = envelope(tmp_path, "rho-mass")
    assert env["config"]["params"]["d"] == 0.5


# ---------- evaluation commands ----------


def test_pf_eval_writes_gaussian_density_csv(tmp_path):
    assert run(tmp_path, "pf-eval", "--params", GAUSS,
               "--a-grid", "0:2:5") == 0
    env = envelope(tmp_path, "pf-eval")
    path = tmp_path / env["payload"]["path"]
    header, rows = read_csv(path)
    assert header == ["a", "f"]
    assert len(rows) == 5
    for a_s, f_s in rows:
        a, f = float(a_s), float(f_s)
        assert abs(f - math.exp(-a * a / 2) / math.sqrt(2 * math.pi)) < 1e-10


def test_rho_mass_quartic_value(tmp_path):
    assert run(tmp_path, "rho-mass", "--params", GAUSS) == 0
    inline = envelope(tmp_path, "rho-mass")["payload"]["inline"]
    assert abs(inline["mass"] - 2.155800549540928) < 1e-10
    assert inline["error"] < 1e-9


def test_z_eval_reports_value_and_cancellation(tmp_path):
    assert run(tmp_path, "z-eval", "--params", C1, "--z", "2.0") == 0
    inline = envelope(tmp_path, "z-eval")["payload"]["inline"]
    assert inline["value"][1] == 0.0
    assert 0.0 < inline["error_over_value"] < 1e-12
    assert inline["mode"] == "native"


def test_z_eval_dd_precision_flag(tmp_path):
    assert run(tmp_path, "z-eval", "--params", C1, "--z", "2.0",
               "--precision", "dd") == 0
    inline = envelope(tmp_path, "z-eval")["payload"]["inline"]
    assert inline["mode"] == "extended"


# ---------- zero tables and the cache ----------


def test_z_zeros_cache_roundtrip(tmp_path, capsys):
    argv = ["z-zeros", "--params", C1, "--zmax", "8"]
    assert run(tmp_path, *argv) == 0
    first = capsys.readouterr().out
    assert "cache hit" not in first
    env1 = envelope(tmp_path, "z-zeros")

    assert run(tmp_path, *argv) == 0
    second = capsys.readouterr().out
    assert "cache hit" in second
    env2 = envelope(tmp_path, "z-zeros")  # same file, overwritten
    assert env1["content_hash"] == env2["content_hash"]

    assert run(tmp_path, *argv, "--force") == 0
    assert "cache hit" not in capsys.readouterr().out

    path = tmp_path / "cache" / env1["payload"]["path"].removeprefix("cache/")
    header, rows = read_csv(path)
    assert header == ["b", "k", "z_k", "residual", "derivative"]
    assert len(rows) == 1
    assert abs(float(rows[0][2]) - math.sqrt(6.0)) < 1e-10


def test_z_zeros_summary_lists_zeros(tmp_path, capsys):
    assert run(tmp_path, "z-zeros", "--params", C1, "--zmax", "8") == 0
    out = capsys.readouterr().out
    assert "1 zero(s) on [0, 8]" in out
    assert "z_0 = 2.449489742783" in out


def test_z_verify_pass(tmp_path):
    assert run(tmp_path, "z-verify", "--params", C1, "--zmax", "8") == 0
    inline = envelope(tmp_path, "z-verify")["payload"]["inline"]
    assert inline["passed"] is True
    assert inline["n_real"] == inline["n_rect"] == 1


def test_z_verify_failure_exits_4(tmp_path, monkeypatch):
    import zlab.cli as cli
    bad = RealityReport(passed=False, window=(0.0, 8.0), n_real=1,
                        n_rect=2, delta=0.5, table=None,
                        tail_note="")
    monkeypatch.setattr(cli, "verify_reality",
                        lambda *a, **k: bad)
    assert run(tmp_path, "z-verify", "--params", C1, "--zmax", "8") == 4
    inline = envelope(tmp_path, "z-verify")["payload"]["inline"]
    assert inline["passed"] is False


def test_z_verify_height_past_the_weight_decay(tmp_path):
    # at height 3 the widest single-factor weight has int|f| ~ 1e52 on a
    # 195-long support; the boundary rule resolves the top edge up to
    # x = 1.5, which holds the one real zero of the closed form
    assert run(tmp_path, "z-verify", "--params", '{"coeffs": [0.02]}',
               "--zmax", "20", "--height", "3") == 0
    inline = envelope(tmp_path, "z-verify")["payload"]["inline"]
    assert inline["passed"] is True and inline["window"] == [0.0, 1.5]
    assert inline["n_real"] == inline["n_rect"] == 1
    c = 0.02
    assert 0.0 < math.sqrt(4.0 * c + 2.0 * c) < inline["window"][1]


def test_z_flow_trajectory_csv(tmp_path):
    assert run(tmp_path, "z-flow", "--params", C1, "--b-grid", "0,1.0",
               "--zmax", "8") == 0
    env = envelope(tmp_path, "z-flow")
    header, rows = read_csv(tmp_path / env["payload"]["path"])
    assert header == ["traj", "b", "z"]
    # single zero tracked over two b values
    assert [r[0] for r in rows] == ["0", "0"]
    assert abs(float(rows[0][2]) - math.sqrt(6.0)) < 1e-10
    # s = 1 + b = 2: zero at sqrt(4 s^2 + 2 s) = sqrt(20)
    assert abs(float(rows[1][2]) - math.sqrt(20.0)) < 1e-10


# ---------- total positivity ----------


def test_tp_check_gaussian_passes(tmp_path):
    assert run(tmp_path, "tp-check", "--params", GAUSS,
               "--grid=-3:3:8", "--order", "2") == 0
    inline = envelope(tmp_path, "tp-check")["payload"]["inline"]
    assert inline["passed"] is True
    assert inline["violations"] == 0


def test_tp_check_bimodal_violation_exits_3(tmp_path, capsys):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["a", "f"])
    for k in range(81):
        a = -4.0 + 0.1 * k
        w.writerow([repr(a), repr(math.exp(-4 * (a + 2) ** 2)
                                  + math.exp(-4 * (a - 2) ** 2))])
    dens = tmp_path / "bimodal.csv"
    dens.write_text(buf.getvalue())
    argv = ["tp-check", "--density", str(dens), "--grid=-3.5:3.5:10",
            "--order", "2"]
    assert run(tmp_path, *argv) == 3
    inline = envelope(tmp_path, "tp-check")["payload"]["inline"]
    assert inline["passed"] is False
    assert inline["min_minor_normalized"] < -1e-6
    # a NaN tolerance would pass every sign test and report no violation
    assert run(tmp_path / "nan", *argv, "--tol", "nan") == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("row", ["x,1", "5", "5,nan"])
def test_tp_check_bad_density_rows_exit_1(tmp_path, capsys, row):
    # a NaN value would make every minor NaN and the scan pass silently
    dens = tmp_path / "bad.csv"
    dens.write_text("a,f\r\n" + "".join(f"{k},1\r\n" for k in range(5))
                    + row + "\r\n")
    assert run(tmp_path, "tp-check", "--density", str(dens)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_tp_check_scans_every_minor(tmp_path):
    assert run(tmp_path, "tp-check", "--params", C1, "--order", "4") == 0
    env = envelope(tmp_path, "tp-check")
    assert env["payload"]["inline"]["minors_checked"] == 245025  # C(12,4)^2
    assert "exhaustive" not in env["payload"]["inline"]
    assert "seed" not in env["config"]


def test_tp_check_past_the_minor_cap_exits_1_at_once(tmp_path, capsys):
    # C(14, 5)^2 = 4 008 004 minors, one grid size past the cap
    t0 = time.perf_counter()
    assert run(tmp_path, "tp-check", "--params", C1, "--order", "5",
               "--grid-size", "14") == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err
    assert not list(tmp_path.glob("*.json"))


def test_tp_check_requires_exactly_one_source(tmp_path):
    assert run(tmp_path, "tp-check", "--grid=-1:1:5") == 1
    assert run(tmp_path, "tp-check", "--params", GAUSS,
               "--density", "x.csv") == 1


# ---------- stochastic commands ----------


def test_gue_sample_deterministic_csv(tmp_path):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(d1, "gue-sample", "--n", "6", "--samples", "4",
               "--seed", "42") == 0
    assert run(d2, "gue-sample", "--n", "6", "--samples", "4",
               "--seed", "42") == 0
    assert run(d3, "gue-sample", "--n", "6", "--samples", "4",
               "--seed", "43") == 0
    f1 = next(d1.glob("spectra-*.csv")).read_bytes()
    f2 = next(d2.glob("spectra-*.csv")).read_bytes()
    f3 = next(d3.glob("spectra-*.csv")).read_bytes()
    assert f1 == f2
    assert f1 != f3
    header, rows = read_csv(next(d1.glob("spectra-*.csv")))
    assert header == ["sample", "k", "eigenvalue"]
    assert len(rows) == 24
    # eigenvalues sorted within each sample
    for s in range(4):
        lams = [float(r[2]) for r in rows if r[0] == str(s)]
        assert lams == sorted(lams)


def test_gue_sample_requires_seed(tmp_path):
    assert run(tmp_path, "gue-sample", "--n", "4", "--samples", "2") == 1


def test_gue_char_matches_product_reference(tmp_path):
    xfile = tmp_path / "x.csv"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["c0", "c1"])
    w.writerow([repr(complex(0.3, 0)), repr(complex(0.1, 0.2))])
    w.writerow([repr(complex(0.1, -0.2)), repr(complex(-0.4, 0))])
    xfile.write_text(buf.getvalue())
    assert run(tmp_path, "gue-char", "--n", "2", "--X", str(xfile),
               "--samples", "4000", "--seed", "11") == 0
    inline = envelope(tmp_path, "gue-char")["payload"]["inline"]
    assert inline["se"] > 0.0
    assert inline["pull"] < 5.0
    # reference is the product over the spectrum; imaginary part vanishes
    assert abs(inline["product_reference"][1]) < 1e-12


def test_gue_char_threads_do_not_change_hash(tmp_path):
    xfile = tmp_path / "x.csv"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["c0"])
    w.writerow([repr(complex(1.0, 0.0))])
    xfile.write_text(buf.getvalue())
    d1, d2 = tmp_path / "t1", tmp_path / "t4"
    for d, threads in ((d1, "1"), (d2, "4")):
        assert run(d, "gue-char", "--n", "1", "--X", str(xfile),
                   "--samples", "2000", "--seed", "5",
                   "--threads", threads) == 0
    h1 = envelope(d1, "gue-char")["content_hash"]
    h2 = envelope(d2, "gue-char")["content_hash"]
    assert h1 == h2


@pytest.mark.parametrize("rows", [
    # 1 x 1: the estimate would be NaN
    ["c0", "(1e+308+0j)"],
    # 2 x 2: tr(XA) and the trace sums of the spectrum both overflow
    ["c0,c1", "(1e+308+0j),0j", "0j,(1e+308+0j)"],
])
def test_gue_char_overflow_exits_2(tmp_path, capsys, rows):
    xfile = tmp_path / "x.csv"
    xfile.write_text("".join(r + "\r\n" for r in rows))
    assert run(tmp_path, "gue-char", "--n", str(len(rows) - 1),
               "--X", str(xfile), "--samples", "100", "--seed", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


def test_gue_char_dimension_mismatch(tmp_path):
    xfile = tmp_path / "x.csv"
    xfile.write_text("c0\r\n(1+0j)\r\n")
    assert run(tmp_path, "gue-char", "--n", "3", "--X", str(xfile),
               "--samples", "10", "--seed", "1") == 1


# ---------- spacings ----------


def test_spacings_on_spectra(tmp_path):
    assert run(tmp_path, "gue-sample", "--n", "30", "--samples", "80",
               "--seed", "3") == 0
    spectra = next(tmp_path.glob("spectra-*.csv"))
    assert run(tmp_path, "spacings", "--input", str(spectra),
               "--reference", "gue") == 0
    inline = envelope(tmp_path, "spacings")["payload"]["inline"]
    assert inline["reference"] == "gue_surmise"
    assert inline["n_spacings"] >= 1000
    assert inline["ks_distance"] < 0.1


def test_spacings_on_zero_table_csv(tmp_path):
    # synthetic near-arithmetic zero table exercises the zeros input path
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["b", "k", "z_k", "residual", "derivative"])
    for k in range(30):
        z = 1.0 + k + 0.01 * math.sin(3.7 * k)
        w.writerow(["0.0", k, repr(z), "1e-16", "1.0"])
    zfile = tmp_path / "zeros.csv"
    zfile.write_text(buf.getvalue())
    assert run(tmp_path, "spacings", "--input", str(zfile),
               "--reference", "poisson") == 0
    inline = envelope(tmp_path, "spacings")["payload"]["inline"]
    assert inline["n_spacings"] == 29
    assert any("small sample" in n for n in inline["notes"])


def test_spacings_insufficient_data_exits_2(tmp_path):
    assert run(tmp_path, "gue-sample", "--n", "8", "--samples", "3",
               "--seed", "1") == 0
    spectra = next(tmp_path.glob("spectra-*.csv"))
    assert run(tmp_path, "spacings", "--input", str(spectra)) == 2


def test_spacings_rejects_unknown_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\r\n1,2\r\n")
    assert run(tmp_path, "spacings", "--input", str(bad)) == 1


# ---------- completed-zeta commands ----------


def test_xi_zeros_first_zero_and_cache(tmp_path, capsys):
    argv = ["xi-zeros", "--zmax", "16"]
    assert run(tmp_path, *argv) == 0
    out = capsys.readouterr().out
    assert "1 zero(s)" in out
    env = envelope(tmp_path, "xi-zeros")
    path = tmp_path / "cache" / env["payload"]["path"].removeprefix("cache/")
    _, rows = read_csv(path)
    assert abs(float(rows[0][2]) - 14.134725141734694) < 1e-9
    assert run(tmp_path, *argv) == 0
    assert "cache hit" in capsys.readouterr().out


def test_xi_zeros_mismatch_exits_4_fresh_and_cached(tmp_path, capsys):
    # at b = 0.5 two zeros below 50 have left the real axis: the winding
    # count sees them, the scan cannot
    argv = ["xi-zeros", "--zmax", "50", "--b", "0.5", "--precision", "dd"]
    note = "10 vs 8 real zero(s) (MISMATCH)"
    assert run(tmp_path, *argv) == 4
    out = capsys.readouterr().out
    assert "cache hit" not in out and note in out
    assert run(tmp_path, *argv) == 4
    out = capsys.readouterr().out
    assert "cache hit" in out and note in out


def test_xi_flow_moves_first_zero_up(tmp_path):
    assert run(tmp_path, "xi-flow", "--b-grid", "0,0.25",
               "--zmax", "16") == 0
    env = envelope(tmp_path, "xi-flow")
    header, rows = read_csv(tmp_path / env["payload"]["path"])
    assert header == ["traj", "b", "z"]
    assert len(rows) == 2
    assert float(rows[1][2]) > float(rows[0][2])


def test_xi_zeros_range_cap_exits_1(tmp_path):
    assert run(tmp_path, "xi-zeros", "--zmax", "55") == 1


# ---------- the shared flags each command reads ----------

SHARED_FLAGS = {"--precision": ["native"], "--abs-tol": ["1e-12"],
                "--rel-tol": ["1e-10"], "--force": [], "--threads": ["1"]}
QUADRATURE = ("--precision", "--abs-tol", "--rel-tol")
# a cheap valid argv per command, and the shared flags it declares
COMMANDS = {
    "p-eval": (["--params", GAUSS, "--t", "1"], ()),
    "pf-eval": (["--params", GAUSS, "--a-grid=-1:1:3"], QUADRATURE),
    "tp-check": (["--params", C1, "--grid-size", "4"], QUADRATURE),
    "rho-mass": (["--params", C1], QUADRATURE),
    "z-eval": (["--params", C1, "--z", "1"], QUADRATURE),
    "z-zeros": (["--params", C1, "--zmax", "4"], ("--precision", "--force")),
    "z-verify": (["--params", C1, "--zmax", "4"], QUADRATURE),
    "z-flow": (["--params", C1, "--b-grid", "0,0.5", "--zmax", "4"],
               ("--precision",)),
    "gue-sample": (["--n", "4", "--samples", "2", "--seed", "1"], ()),
    "gue-char": (["--n", "1", "--X", "{x}", "--samples", "10", "--seed", "1"],
                 ("--threads",)),
    "spacings": (["--input", "{zeros}", "--reference", "poisson"], ()),
    "xi-zeros": (["--zmax", "15"], (*QUADRATURE, "--force")),
    "xi-flow": (["--b-grid", "0,0.25", "--zmax", "15"], ("--precision",)),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_takes_only_the_shared_flags_it_reads(tmp_path, capsys,
                                                           command):
    xfile, zfile = tmp_path / "x.csv", tmp_path / "zeros.csv"
    xfile.write_text("c0\r\n(1+0j)\r\n")
    zfile.write_text("b,k,z_k,residual,derivative\r\n" + "".join(
        f"0.0,{k},{k + 1 + 0.01 * math.sin(3.7 * k)!r},1e-16,1.0\r\n"
        for k in range(30)))
    args, declared = COMMANDS[command]
    argv = [command, *(str(xfile) if a == "{x}" else
                       str(zfile) if a == "{zeros}" else a for a in args)]
    for flag, value in SHARED_FLAGS.items():
        if flag not in declared:
            out = tmp_path / flag
            assert run(out, *argv, flag, *value) == 1
            assert capsys.readouterr().err.startswith("error:")
            assert not list(out.glob("*.json"))
    out = tmp_path / "declared"
    assert run(out, *argv, *(a for flag in declared
                             for a in (flag, *SHARED_FLAGS[flag]))) == 0
    config = envelope(out, command)["config"]
    assert ("precision" in config) == ("--precision" in declared)
    assert ("abs_tol" in config) == ("rel_tol" in config) \
        == ("--abs-tol" in declared)


# ---------- argument and validation failures ----------


def test_unknown_command_and_flags_exit_1(tmp_path):
    assert main(["no-such-command"]) == 1
    assert run(tmp_path, "p-eval", "--params", GAUSS, "--t", "1",
               "--bogus") == 1
    # tp-check scans every minor, so it has no seed
    assert run(tmp_path, "tp-check", "--params", C1, "--seed", "-1") == 1
    assert not list(tmp_path.glob("*.json"))


def test_malformed_params_exit_1(tmp_path):
    assert run(tmp_path, "p-eval", "--params", "{not json", "--t", "1") == 1
    assert run(tmp_path, "p-eval", "--params", "/no/such/file.json",
               "--t", "1") == 1
    assert run(tmp_path, "p-eval", "--params", '{"omega": 1, "zz": 2}',
               "--t", "1") == 1


def test_inadmissible_measure_rejected_before_transform(tmp_path):
    # negative coefficient: p is a fine characteristic function but the
    # induced density goes negative, so measure-layer commands refuse
    assert run(tmp_path, "p-eval", "--params", '{"coeffs": [-1.0]}',
               "--t", "1") == 0
    assert run(tmp_path, "rho-mass", "--params", '{"coeffs": [-1.0]}') == 1
    assert run(tmp_path, "z-zeros", "--params", '{"coeffs": [-1.0]}',
               "--zmax", "4") == 1


@pytest.mark.parametrize("argv", [
    ["z-zeros", "--params", C1, "--zmax", "nan"],
    ["z-zeros", "--params", C1, "--zmax", "inf"],
    ["z-zeros", "--params", C1, "--zmax", "8", "--step", "0"],
    ["z-zeros", "--params", C1, "--zmax", "8", "--step", "-1"],
    ["z-zeros", "--params", C1, "--zmax", "8", "--step", "nan"],
    ["z-verify", "--params", C1, "--zmax", "nan"],
    ["z-verify", "--params", C1, "--zmax", "inf"],
    ["z-verify", "--params", C1, "--zmax", "5", "--height", "nan"],
    ["z-verify", "--params", C1, "--zmax", "5", "--x-min", "10"],
    ["gue-char", "--n", "1", "--X", "{x}", "--samples", "100",
     "--seed", "5", "--threads", "0"],
    ["gue-char", "--n", "1", "--X", "{x}", "--samples", "100",
     "--seed", "5", "--threads", "-3"],
    # scan grids past the size cap, refused before they are allocated
    ["z-zeros", "--params", C1, "--zmax", "1e308"],
    ["z-verify", "--params", C1, "--zmax", "1e308"],
    ["z-zeros", "--params", C1, "--zmax", "1e7"],
    ["z-zeros", "--params", C1, "--zmax", "1e7", "--step", "100"],
    ["z-zeros", "--params", C1, "--zmax", "1e308", "--step", "1e303"],
    ["z-zeros", "--params", C1, "--zmax", "5", "--step", "1e-9"],
    ["xi-zeros", "--zmax", "10", "--b", "inf"],
    ["xi-zeros", "--zmax", "10", "--b", "nan"],
    ["xi-flow", "--zmax", "10", "--b-grid", "0,nan"],
    ["xi-flow", "--zmax", "10", "--b-grid", "0,inf"],
    # non-finite complex arguments, and an initial panel count past the cap
    ["p-eval", "--params", GAUSS, "--t", "nan"],
    ["z-eval", "--params", C1, "--z", "nan"],
    ["z-eval", "--params", '{"omega": 0.5}', "--z", "1e300"],
    ["z-eval", "--params", '{"omega": 0.5}', "--z", "1e308"],
    # b < 0 is outside the paper's domain for xi as for ZSpec
    ["xi-zeros", "--zmax", "20", "--b", "-1"],
    ["xi-flow", "--b-grid=-1,0", "--zmax", "20"],
    # a scan refused for its time, not its memory
    ["z-zeros", "--params", C1, "--zmax", "5", "--step", "5e-6",
     "--precision", "dd"],
    # negative seeds, rejected before numpy's seeding sees them
    ["gue-sample", "--n", "4", "--samples", "2", "--seed", "-1"],
    ["gue-char", "--n", "1", "--X", "{x}", "--samples", "100",
     "--seed", "-1"],
    # sizes past the minor, density-evaluation and spectrum caps, refused
    # before any array is allocated
    ["tp-check", "--params", C1, "--order", "2", "--grid-size", "54"],
    ["tp-check", "--params", C1, "--grid-size", "1000000000000"],
    ["tp-check", "--params", C1, "--grid=-2:2:100000"],
    ["pf-eval", "--params", C1, "--a-grid=-2:2:1000000000000"],
    ["gue-sample", "--n", "1000000000", "--samples", "1", "--seed", "0"],
    # more threads than CPUs; a single sample never reaches a thread pool
    ["gue-char", "--n", "1", "--X", "{x}", "--samples", "1", "--seed", "5",
     "--threads", "100000"],
    # initial quadrature panels past the cap: the panel width shrinks as
    # 1/|a|, so these would run for hours
    ["pf-eval", "--params", GAUSS, "--a-grid=-1000:1000:9999"],
    ["tp-check", "--params", GAUSS, "--grid=-500:500:99"],
])
def test_non_finite_or_non_positive_numbers_exit_1(tmp_path, capsys, argv):
    xfile = tmp_path / "x.csv"
    xfile.write_text("c0\r\n(1+0j)\r\n")
    argv = [str(xfile) if a == "{x}" else a for a in argv]
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# one valid call per command whose adaptive quadrature the flags govern
TOL_COMMANDS = [
    ["z-eval", "--params", C1, "--z", "1"],
    ["rho-mass", "--params", C1],
    ["pf-eval", "--params", GAUSS, "--a-grid=-1:1:3"],
    ["tp-check", "--params", C1],
    ["z-verify", "--params", C1, "--zmax", "5"],
    ["xi-zeros", "--zmax", "10"],
]


@pytest.mark.parametrize("argv", [
    [*cmd, flag, value] for cmd in TOL_COMMANDS
    for flag in ("--abs-tol", "--rel-tol")
    for value in ("nan", "inf", "0", "-1")
] + [
    # a tolerance so tight that xi's truncated tail would exceed it
    ["xi-zeros", "--zmax", "10", "--abs-tol", "1e-80"],
])
def test_bad_tolerance_flags_exit_1(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("t", ["1e200", "1e308"])
def test_p_eval_without_gaussian_is_finite_at_huge_t(tmp_path, t):
    # with d = 0 no t^2 is formed: |p| = |e^{it} / (1 + it)| = 1/|t|
    assert run(tmp_path, "p-eval", "--params", C1, "--t", t) == 0
    abs_p = envelope(tmp_path, "p-eval")["payload"]["inline"]["abs_p"]
    assert abs(abs_p * float(t) - 1.0) <= 1e-12


@pytest.mark.parametrize("argv", [
    # the Gaussian factor e^{-d t^2} overflows at t = 1000i
    ["p-eval", "--params", GAUSS, "--t", "0,1000"],
    # a rectangle too thin for the walk to resolve the argument
    ["z-verify", "--params", C1, "--zmax", "5", "--height", "1e-308"],
])
def test_unresolvable_numbers_exit_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


def test_bad_grid_and_complex_syntax_exit_1(tmp_path):
    assert run(tmp_path, "pf-eval", "--params", GAUSS,
               "--a-grid", "0:2") == 1
    assert run(tmp_path, "pf-eval", "--params", GAUSS,
               "--a-grid", "2:0:5") == 1
    assert run(tmp_path, "z-eval", "--params", C1, "--z", "1,2,3") == 1

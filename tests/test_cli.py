"""End-to-end tests of the command-line surface.

Every test drives main(argv) in-process and inspects exit codes, result
envelopes, payload files, and the zero-table cache.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from zlab.cli import main
from zlab.ztransform import RealityReport, ZeroTable

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


def test_tp_check_bimodal_violation_exits_3(tmp_path):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["a", "f"])
    for k in range(81):
        a = -4.0 + 0.1 * k
        w.writerow([repr(a), repr(math.exp(-4 * (a + 2) ** 2)
                                  + math.exp(-4 * (a - 2) ** 2))])
    dens = tmp_path / "bimodal.csv"
    dens.write_text(buf.getvalue())
    assert run(tmp_path, "tp-check", "--density", str(dens),
               "--grid=-3.5:3.5:10", "--order", "2") == 3
    inline = envelope(tmp_path, "tp-check")["payload"]["inline"]
    assert inline["passed"] is False
    assert inline["min_minor_normalized"] < -1e-6


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


def test_xi_zeros_mismatch_exits_4_fresh_and_cached(tmp_path, monkeypatch,
                                                   capsys):
    import zlab.cli as cli
    bad = ZeroTable(b=0.0, z_max=16.0, step=0.1, mode="native",
                    zeros=[], noise_regions=[],
                    notes=["winding count on [0, 16] x [-2, 2]: "
                           "1 vs 0 real zero(s) (MISMATCH)"])
    monkeypatch.setattr(cli, "xi_zeros", lambda *a, **k: bad)
    argv = ["xi-zeros", "--zmax", "16"]
    assert run(tmp_path, *argv) == 4
    assert run(tmp_path, *argv) == 4
    assert "cache hit" in capsys.readouterr().out


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


# ---------- argument and validation failures ----------


def test_unknown_command_and_flags_exit_1(tmp_path):
    assert main(["no-such-command"]) == 1
    assert run(tmp_path, "p-eval", "--params", GAUSS, "--t", "1",
               "--bogus") == 1


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
])
def test_non_finite_or_non_positive_numbers_exit_1(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_grid_and_complex_syntax_exit_1(tmp_path):
    assert run(tmp_path, "pf-eval", "--params", GAUSS,
               "--a-grid", "0:2") == 1
    assert run(tmp_path, "pf-eval", "--params", GAUSS,
               "--a-grid", "2:0:5") == 1
    assert run(tmp_path, "z-eval", "--params", C1, "--z", "1,2,3") == 1

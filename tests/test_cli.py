"""Command-line interface: output shapes, exit codes, adapter fidelity."""

import math
from types import SimpleNamespace

import pytest

from specgap import cli, eigen, graph6, multipartite, verify
from specgap.graphs import complete


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_spectrum_command(capsys):
    code, out, err = run(capsys, "spectrum", "Bw")
    assert code == 0
    assert "order 3 edges 3" in out
    assert "spectrum 2.000000 -1.000000 -1.000000" in out
    assert "nullity 0" in out


def test_indices_command(capsys):
    code, out, _ = run(capsys, "indices", "C~")
    assert code == 0
    assert "lambda_max 3.000000" in out
    assert "gap 4.000000" in out
    assert "ind 3.000000" in out
    assert "pow 6.000000" in out


def test_multipartite_command(capsys):
    code, out, _ = run(capsys, "multipartite", "--parts", "1,2,3")
    assert code == 0
    assert "dispersion_root" in out
    assert "3.766435" in out
    assert "max_deviation" in out
    code, out, _ = run(capsys, "multipartite", "--parts", "2,2", "--analytic")
    assert code == 0
    assert "numeric" not in out


def test_multipartite_analytic_makes_no_dense_eigensolve(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(eigen, "spectrum", lambda g: calls.append(g))
    code, out, err = run(capsys, "multipartite", "--parts", "1,2,3",
                         "--analytic")
    assert (code, err, calls) == (0, "", [])
    assert out == ("value\tmult\tprovenance\n"
                   "3.766435\t1\tdispersion_root\n"
                   "0.000000\t3\tzero_block\n"
                   "-1.282824\t1\tdispersion_root\n"
                   "-2.483612\t1\tdispersion_root\n"
                   "gap 5.049259 ind 3.766435 pow 7.532871\n")


def test_perturbed_command(capsys):
    code, out, _ = run(capsys, "perturbed", "--family", "kmm-minus-e",
                       "--m", "3")
    assert code == 0
    assert "gap 1.464102" in out
    assert "gap_limit_residual" in out
    code, out, _ = run(capsys, "perturbed", "--family", "kmm_plus_e",
                       "--m", "3")
    assert code == 0
    assert "ind_limit_residual" in out
    assert "-1.000000\t1\tclosed_form" in out


def test_census_command(capsys, tmp_path):
    code, out, _ = run(capsys, "census", "--order", "4",
                       "--out", str(tmp_path), "--threads", "1")
    assert code == 0
    assert "order 4 count 6" in out
    stats = (tmp_path / "stats.csv").read_text()
    assert stats.startswith("index,count,mean,")
    assert (tmp_path / "hist_gap.csv").exists()


def test_census_from_file(capsys, tmp_path):
    f = tmp_path / "in.g6"
    f.write_text("Bw\nBo\n")
    code, out, _ = run(capsys, "census", "--file", str(f),
                       "--out", str(tmp_path))
    assert code == 0
    assert "count 2" in out


def test_census_output_is_stable(capsys, tmp_path):
    run(capsys, "census", "--order", "5", "--out", str(tmp_path / "a"))
    run(capsys, "census", "--order", "5", "--out", str(tmp_path / "b"),
        "--threads", "3", "--chunk-size", "4")
    a = (tmp_path / "a" / "stats.csv").read_bytes()
    b = (tmp_path / "b" / "stats.csv").read_bytes()
    # thread count must not affect output; chunking only via float rounding
    assert a == b


def test_extremal_command(capsys):
    code, out, _ = run(capsys, "extremal", "--order", "4", "--index", "gap",
                       "--dir", "min")
    assert code == 0
    assert f"min gap {math.sqrt(5.0) - 1.0:.6f}" in out
    assert "witness" in out


def test_extremal_alias(capsys):
    code, out, _ = run(capsys, "extremal", "--order", "4", "--index", "lmax",
                       "--dir", "max")
    assert code == 0
    assert "max lambda_max 3.000000" in out
    assert graph6.encode(complete(4)) in out


def test_extremal_names_the_witnesses_past_the_cap(capsys, tmp_path):
    f = tmp_path / "ties.g6"
    f.write_text("Bw\n" * 20 + "Bg\n")
    code, out, _ = run(capsys, "extremal", "--file", str(f),
                       "--index", "lmax", "--dir", "max")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "max lambda_max 2.000000 over 21 graphs"
    k3 = "witness Bw spectrum 2.000000 -1.000000 -1.000000"
    assert lines[1:-1] == [k3] * 16
    assert lines[-1] == "witness_overflow 4"


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--check", "prop1", "--order", "5")
    assert code == 0
    assert "prop1 PASS" in out


def test_verify_failure_exits_one(capsys, tmp_path):
    f = tmp_path / "partial.g6"
    f.write_text("C~\nCr\n")
    code, out, _ = run(capsys, "verify", "--check", "classical",
                       "--order", "4", "--file", str(f))
    assert code == 1
    assert "FAIL" in out
    assert "first_counterexample" in out


def _boom(*_):
    raise RuntimeError("boom")


# (check, order, (module, name, value) patches, first counterexample);
# each patch moves an expected value or a predicate so one tag fires
_FAILURE_TAGS = [
    ("prop1", "3", [(verify, "_TOL", -1.0)],
     "1+1+1: analytic/dense spectra differ"),
    ("prop1", "3", [(multipartite, "multipartite_bounds_check",
                     lambda parts: SimpleNamespace(holds=True)),
                    (eigen, "default_zero_tol", lambda order: 100.0)],
     "1+1+1: 0 positive eigenvalues"),
    ("prop1", "3", [(multipartite, "_SLACK", -1e9)], "1+1+1: bound violated"),
    ("prop1", "3", [(multipartite, "multipartite_bounds_check", _boom)],
     "1+1+1: boom"),
    ("prop2b", "5", [(verify, "_TOL", -1.0)], "max pow 8.0000000000 != 8.0"),
    ("prop2b", "5", [(verify, "_is_complete", lambda g: False)],
     "complete graph missing from witnesses"),
    ("prop2b", "7", [(verify, "_POW7_SPECTRA", ((7.0,) * 7,) * 2)],
     "unexpected witness spectrum ("),
    ("prop3", "4", [(verify, "_TOL", -1.0)], "m=2: spectra differ"),
    ("prop4", "4", [(verify, "_TOL", -1.0)], "m=2: spectra differ"),
    ("prop4", "4", [(verify, "compute_indices",
                     lambda vals: SimpleNamespace(lambda_minus=0.0))],
     "m=3: lambda_minus 0.0 != -1"),
]


@pytest.mark.parametrize("check,order,patches,first", _FAILURE_TAGS)
def test_verify_failure_tags(capsys, monkeypatch, check, order, patches,
                             first):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    code, out, err = run(capsys, "verify", "--check", check, "--order", order)
    assert (code, err) == (1, "")
    assert out.startswith(f"{check} FAIL checked ")
    assert out.splitlines()[1].startswith(f"first_counterexample {first}")


@pytest.mark.parametrize("order,lines,first", [
    ("5", "D~{\nD~{\n", "expected a unique witness, got 2"),  # K5 twice
    ("7", "F~~~w\n", "expected 2 witnesses, got 1"),  # K7 alone
])
def test_verify_power_maximum_witness_count(capsys, tmp_path, order, lines,
                                            first):
    f = tmp_path / "census.g6"
    f.write_text(lines)
    code, out, _ = run(capsys, "verify", "--check", "prop2b",
                       "--order", order, "--file", str(f))
    assert code == 1
    assert out.splitlines()[1] == f"first_counterexample {first}"


@pytest.mark.parametrize("check,order", [
    ("prop2b", "7"),  # order-8 powers would pose as order-7 counterexamples
    ("prop2a", "5"),  # order-8 graphs would pass as an order-5 census
])
def test_verify_file_of_another_order_is_an_input_error(capsys, census8_path,
                                                       check, order):
    code, out, err = run(capsys, "verify", "--check", check, "--order", order,
                         "--file", census8_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "order 8" in err


def test_verify_mixed_order_file_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "mixed.g6"
    f.write_text("C~\nD~{\n")
    code, out, err = run(capsys, "verify", "--check", "vertex-add",
                         "--order", "4", "--file", str(f))
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error:")


@pytest.mark.parametrize("check,order", [
    ("prop2a", "3"), ("bipartite-bound", "3"), ("prop1", "1"),
])
def test_verify_vacuous_suite_exits_two(capsys, check, order):
    code, out, err = run(capsys, "verify", "--check", check, "--order", order)
    assert code == 2
    assert out.startswith(f"{check} FAIL checked 0 ")
    assert "first_counterexample" not in out
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("check", ["prop1", "prop3", "prop4"])
def test_verify_file_for_a_suite_without_census_exits_two(capsys, check):
    code, out, err = run(capsys, "verify", "--check", check, "--order", "8",
                         "--file", "/nonexistent.g6")
    assert code == 2
    assert out == ""
    assert err == f"error: check {check} reads no census; it takes no graph6 file\n"


def test_density_command(capsys):
    code, out, _ = run(capsys, "density", "--delta", "0.25",
                       "--gamma", "0.36")
    assert code == 0
    assert "m1 16 m2 21 order 37" in out


def test_approx_count_command(capsys):
    code, out, _ = run(capsys, "approx-count", "--order", "9")
    assert code == 0
    assert out == "order 9 approx 261080.0 true 261080 rel_error 0.0000\n"
    code, out, _ = run(capsys, "approx-count", "--order", "10")
    assert code == 0
    assert out == ("order 10 approx 8068143.3 true 11716571 "
                   "rel_error 0.3114\n")


def test_approx_count_marks_orders_past_the_known_counts(capsys):
    code, out, err = run(capsys, "approx-count", "--order", "11")
    assert (code, err) == (0, "")
    assert out.startswith("order 11 approx ")
    assert out.endswith(" extrapolated\n")


def test_approx_count_past_the_float_range_is_an_input_error(capsys):
    code, out, err = run(capsys, "approx-count", "--order", "59")
    assert (code, err) == (0, "")
    assert out.startswith("order 59 approx 26108")
    assert out.endswith(" extrapolated\n")
    assert math.isfinite(float(out.split()[3]))
    for order in ("60", "2000"):
        code, out, err = run(capsys, "approx-count", "--order", order)
        assert (code, out) == (2, "")
        assert err == (f"error: order {order} is too large: "
                       "the count exceeds a float\n")


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "spectrum", "B@@")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "multipartite", "--parts", "7")
    assert code == 2
    code, _, err = run(capsys, "census", "--file", "/does/not/exist.g6",
                       "--out", "/tmp")
    assert code == 2


def test_non_ascii_graph6_is_an_input_error(capsys):
    code, out, err = run(capsys, "spectrum", "B\u00e9")
    assert code == 2
    assert out == ""
    assert err == "error: byte 195 outside graph6 range 63..126\n"


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["census"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["extremal", "--order", "4", "--file", "x.g6",
                  "--index", "gap", "--dir", "min"])
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    with pytest.raises(SystemExit) as err:
        cli.main(["multipartite", "--parts", "1,x"])
    assert err.value.code == 2


def test_adapter_matches_library(capsys):
    code, out, _ = run(capsys, "spectrum", "DQc")
    assert code == 0
    vals = eigen.spectrum(graph6.decode("DQc"))
    printed = [float(tok) for tok in out.splitlines()[1].split()[1:]]
    assert printed == pytest.approx(vals, abs=1e-6)


@pytest.mark.parametrize("argv", [
    ("census", "--order", "1", "--threads", "1"),
    ("extremal", "--order", "1", "--index", "gap", "--dir", "min"),
    ("census", "--file", "ONE_VERTEX", "--threads", "1"),
])
def test_order_one_is_a_typed_error(capsys, tmp_path, argv):
    one = tmp_path / "one.g6"
    one.write_text("@\n")
    argv = [str(one) if a == "ONE_VERTEX" else a for a in argv]
    if argv[0] == "census":
        argv += ["--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_unexpected_exception_is_not_exit_one(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_spectrum", boom)
    code, _, err = run(capsys, "spectrum", "Bw")
    assert code == 2
    assert err.strip() == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("argv", [
    ("indices", "C~", "--zero-tol", "-1"),
    ("spectrum", "C~", "--zero-tol", "nan"),
    ("spectrum", "C~", "--zero-tol=-1e-12"),
    ("census", "--order", "4", "--zero-tol", "-1", "--threads", "1"),
    ("extremal", "--order", "4", "--index", "gap", "--dir", "min",
     "--zero-tol", "inf"),
])
def test_bad_zero_tolerance_exits_two(capsys, tmp_path, argv):
    out_dir = tmp_path / "out"
    if argv[0] == "census":
        argv += ("--out", str(out_dir))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: zero tolerance must be finite")
    assert not out_dir.exists()


def test_zero_tolerance_zero_is_accepted(capsys, tmp_path):
    code, out, _ = run(capsys, "spectrum", "C~", "--zero-tol", "0")
    assert code == 0 and "nullity 0" in out
    code, out, _ = run(capsys, "indices", "C~", "--zero-tol", "0")
    assert code == 0 and "gap 4.000000" in out
    code, out, _ = run(capsys, "census", "--order", "4", "--zero-tol", "0",
                       "--threads", "1", "--out", str(tmp_path))
    assert code == 0 and "count 6" in out


@pytest.mark.parametrize("flag,value", [
    ("--chunk-size", "0"), ("--chunk-size", "-5"),
    ("--threads", "0"), ("--threads", "-2"),
])
def test_census_counts_below_one_are_usage_errors(capsys, tmp_path, flag,
                                                   value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--order", "4", "--out", str(tmp_path / "out"),
                  flag, value])
    assert exc.value.code == 2
    assert "--threads and --chunk-size must be at least 1" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()

"""Command-line interface: output shapes, exit codes, adapter fidelity."""

import contextlib
import io
import itertools
import math
import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgap import census, cli, eigen, graph6, multipartite, verify
from specgap.graphs import Graph, complete
from specgap.indices import INDEX_NAMES


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


def _timed_main(argv, seconds):
    """cli.main(argv), its stdout and its stderr; a call still running
    after seconds ends as an internal error, exit 2."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.integers(1, 10 ** 9), min_size=2, max_size=4))
@example(parts=[8000, 9000])  # roots where adjacent doubles are > 1e-12 apart
@example(parts=[10000, 20000])
@example(parts=[100000000, 100000001])  # top root within rounding of m - m/k
@example(parts=[10000000, 10000000])  # rounding of eigenvalues near 10^7
@example(parts=[1, 1000000000])
def test_multipartite_analytic_at_any_part_size(parts):
    # every root search ends, and the dense cross-check scales with the
    # spectrum; two parts a, b have the gap 2 sqrt(ab)
    code, out, err = _timed_main(
        ["multipartite", "--parts", ",".join(map(str, parts)), "--analytic"], 5)
    assert (code, err) == (0, "")
    last = out.splitlines()[-1].split()
    assert last[0::2] == ["gap", "ind", "pow"]
    if len(parts) == 2:
        assert float(last[1]) == pytest.approx(
            2.0 * math.sqrt(parts[0] * parts[1]), rel=1e-9, abs=5e-7)


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


@pytest.mark.parametrize("family", ["kmm_minus_e", "kmm_plus_e"])
@pytest.mark.parametrize("m", [10 ** 9, 10 ** 11])
def test_perturbed_command_at_huge_part_sizes(capsys, family, m):
    # the indices come from the multiplicities, and the values near +-1
    # stay nonzero however large the order
    code, out, err = run(capsys, "perturbed", "--family", family, "--m", str(m))
    assert (code, err) == (0, "")
    lines = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    assert float(lines["gap_limit_residual"]) <= 1e-6


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


def test_degenerate_census_error_names_the_graph(capsys, tmp_path,
                                                 census8_path):
    # at zero tolerance 1.2 only K8 (spectrum 7, -1 x7) lacks a negative
    # eigenvalue; the error names it whatever the chunking and threads
    for chunk_size, threads in ((100, 1), (2048, 1), (100, 2), (2048, 2)):
        code, out, err = run(capsys, "census", "--file", census8_path,
                             "--zero-tol", "1.2", "--out", str(tmp_path),
                             "--chunk-size", str(chunk_size),
                             "--threads", str(threads))
        assert (code, out) == (2, "")
        assert err == ("error: graph G~~~~{: spectrum lacks eigenvalues of "
                       "both signs\n")
    code, out, err = run(capsys, "extremal", "--file", census8_path,
                         "--zero-tol", "1.2", "--index", "gap", "--dir", "min")
    assert (code, out) == (2, "")
    assert err == "error: graph G~~~~{: spectrum lacks eigenvalues of both signs\n"


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
    # named by the tag's fixed part; the witness spectrum follows it
    pytest.param("prop2b", "7", [(verify, "_POW7_SPECTRA", ((7.0,) * 7,) * 2)],
                 "unexpected witness spectrum"
                 " (5.0, 1.0, -1.0, -1.0, -1.0, -1.0, -2.0)",
                 id="prop2b-7-patches6-unexpected witness spectrum ("),
    ("prop3", "4", [(verify, "_TOL", -1.0)], "m=2: spectra differ"),
    ("prop4", "4", [(verify, "_TOL", -1.0)], "m=2: spectra differ"),
    ("prop4", "4", [(verify, "compute_indices",
                     lambda vals: SimpleNamespace(lambda_minus=0.0))],
     "m=3: lambda_minus 0.0 != -1"),
    ("prop2a", "5", [(multipartite, "_SLACK", -1e9)], "Dk_"),
    ("bipartite-bound", "5", [(multipartite, "_SLACK", -1e9)], "Dk_"),
    ("vertex-add", "4", [(multipartite, "_SLACK", -1e9)], "cone:Cs"),
    ("classical", "5", [(verify, "_is_star", lambda g: False)],
     "min pow: expected 4.000000 got 4.000000 (witness Ds_)"),
]


@pytest.mark.parametrize("check,order,patches,first", _FAILURE_TAGS)
def test_verify_failure_tags(capsys, monkeypatch, check, order, patches,
                             first):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    code, out, err = run(capsys, "verify", "--check", check, "--order", order)
    assert (code, err) == (1, "")
    assert out.startswith(f"{check} FAIL checked ")
    assert out.splitlines()[1] == f"first_counterexample {first}"


def test_verify_bug_in_prop1_is_not_a_counterexample(capsys, monkeypatch):
    # a suite catches only its defect checks (RuntimeError); a bug exits 2
    def bug(parts):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(multipartite, "multipartite_bounds_check", bug)
    code, out, err = run(capsys, "verify", "--check", "prop1", "--order", "3")
    assert (code, out) == (2, "")
    assert err == "internal error: TypeError: unsupported operand\n"


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


def test_verify_prop2a_at_order_one_names_the_graph(capsys):
    code, out, err = run(capsys, "verify", "--check", "prop2a", "--order", "1")
    assert (code, out) == (2, "")
    assert err == "error: graph @: spectrum lacks eigenvalues of both signs\n"


def test_mixed_order_error_does_not_depend_on_the_chunking(capsys, tmp_path,
                                                            monkeypatch):
    # 14 triangles, K4, 13 edgeless order-4 graphs (rejected as
    # disconnected), then a malformed line, read 5 lines a block: the
    # order change is read first, whether the triangles fill their chunks
    # or not, and whatever the threads
    f = tmp_path / "mixed.g6"
    f.write_text("Bw\n" * 14 + "C~\n" + "C?\n" * 13 + "C~~\n")
    monkeypatch.setattr(census, "SOURCE_BLOCK", 5)
    for chunk_size, threads in itertools.product(("1", "7", "14", "2048"),
                                                 ("1", "2", "3")):
        code, out, err = run(capsys, "census", "--file", str(f),
                             "--chunk-size", chunk_size, "--threads", threads,
                             "--out", str(tmp_path))
        assert (code, out, err) == (2, "", "error: census mixes orders 3 and 4\n")


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


@pytest.mark.parametrize("argv", [
    ("census", "--order", "11"),
    ("extremal", "--order", "11", "--index", "gap", "--dir", "min"),
    ("verify", "--check", "classical", "--order", "11"),
])
def test_order_past_the_known_counts_builds_nothing(capsys, tmp_path,
                                                    monkeypatch, argv):
    def no_extension(m, parents, complete):
        raise AssertionError(f"order {m} was extended")

    monkeypatch.setattr(census, "_extend", no_extension)
    argv = [*argv, "--out", str(tmp_path)] if argv[0] == "census" else argv
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: the built-in census stops at order 10, the last "
                   "known class count\n")


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


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_census_error_does_not_depend_on_threads(capsys, tmp_path, threads):
    # the one-vertex chunk fails before the next chunk's order change does
    f = tmp_path / "f.g6"
    f.write_text("@\nA_\n")
    code, out, err = run(capsys, "census", "--file", str(f), "--chunk-size",
                         "1", "--threads", threads, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: graph @: spectrum lacks eigenvalues of both signs\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "prop2a", "--order", "5"),
    ("verify", "--check", "prop1", "--order", "5"),
    ("extremal", "--order", "4", "--index", "gap", "--dir", "min"),
])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_are_usage_errors(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--threads", value])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert err.splitlines()[-1].endswith("error: --threads must be at least 1")


def test_threads_option_is_shared(capsys, census8_path):
    parser = cli._build_parser()
    for argv in (["census", "--order", "4"],
                 ["extremal", "--order", "4", "--index", "gap", "--dir", "min"],
                 ["verify", "--check", "prop3", "--order", "4"]):
        assert parser.parse_args(argv).threads == (os.cpu_count() or 1)
    # the suites that read no census take the option and ignore it
    for check, order in (("prop1", "6"), ("prop3", "12"), ("prop4", "12")):
        assert run(capsys, "verify", "--check", check, "--order", order,
                   "--threads", "3") == run(capsys, "verify", "--check",
                                            check, "--order", order)
    one = run(capsys, "extremal", "--file", census8_path, "--index", "pow",
              "--dir", "min", "--threads", "1")
    assert one[0] == 0
    assert run(capsys, "extremal", "--file", census8_path, "--index", "pow",
               "--dir", "min", "--threads", "3") == one


CENSUS_CHECKS = ("prop2a", "prop2b", "bipartite-bound", "vertex-add",
                 "classical")


def _census_outputs(capsys, out_dir, *source):
    """Exit code, stdout without its last line (the output path), stderr
    and the bytes of every file that census writes for this source."""
    code, out, err = run(capsys, "census", *source, "--out", str(out_dir))
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, out.splitlines()[:-1], err, files


@pytest.mark.parametrize("m", range(2, 8))
def test_order_and_file_give_the_same_outputs(capsys, tmp_path, m):
    # the built-in census and a graph6 file of it take one path to the report
    f = tmp_path / "census.g6"
    f.write_text("".join(graph6.encode(g) + "\n"
                         for g in census.enumerate_connected(m)))
    order, file = ("--order", str(m)), ("--file", str(f))
    by_order = _census_outputs(capsys, tmp_path / "order", *order)
    assert by_order == _census_outputs(capsys, tmp_path / "file", *file)
    assert by_order[0] == 0 and len(by_order[3]) == 1 + len(INDEX_NAMES)
    for index in INDEX_NAMES:
        for direction in ("min", "max"):
            argv = ("extremal", "--index", index, "--dir", direction)
            assert run(capsys, *argv, *order) == run(capsys, *argv, *file)
    for check in CENSUS_CHECKS:
        argv = ("verify", "--check", check, *order)
        assert run(capsys, *argv) == run(capsys, *argv, *file)


def test_census_commands_build_no_graph_per_row(capsys, tmp_path,
                                                monkeypatch):
    # --order reads the enumeration's pair bits: its Graph list is never
    # built, and a Graph is made only for a witness the output names
    def no_graph_list(m):
        raise AssertionError(f"the order-{m} census was built as Graphs")

    built = []
    post_init = Graph.__post_init__

    def count(g):
        built.append(g)
        post_init(g)

    monkeypatch.setattr(census, "enumerate_connected", no_graph_list)
    monkeypatch.setattr(Graph, "__post_init__", count)
    runs = [("census", "--order", "6", "--out", str(tmp_path)),
            ("extremal", "--order", "6", "--index", "gap", "--dir", "max"),
            *(("verify", "--check", check, "--order", "6")
              for check in CENSUS_CHECKS)]
    for argv in runs:
        built.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert len(built) <= 30, argv  # the order-6 census has 112 rows


def _write_graph6(path, m, bits):
    """graph6 lines of an order-m pair-bit batch: the order character, then
    the pair bits in their own order, six to a character."""
    n, pairs = bits.shape
    padded = np.zeros((n, -(-pairs // 6) * 6), np.uint8)
    padded[:, :pairs] = bits
    chars = padded.reshape(n, -1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    lines = np.column_stack([np.full(n, m + 63), chars, np.full(n, ord("\n"))])
    path.write_bytes(lines.astype(np.uint8).tobytes())


def test_census_order9_matches_the_same_census_from_file(capsys, tmp_path,
                                                         monkeypatch, census9):
    # census --order 9 through the CLI, its enumeration the session's
    # order-9 census rather than a second one
    enumerate_ = census._enumerate
    monkeypatch.setattr(census, "_enumerate",
                        lambda m: census9 if m == 9 else enumerate_(m))
    f = tmp_path / "census9.g6"
    _write_graph6(f, 9, census._form_bits(*census9))
    by_order = _census_outputs(capsys, tmp_path / "order", "--order", "9",
                               "--threads", "2")
    assert by_order == _census_outputs(capsys, tmp_path / "file", "--file",
                                       str(f), "--threads", "2")
    assert (by_order[0], by_order[2]) == (0, "")
    assert by_order[1][0] == "order 9 count 261080 rejected_disconnected 0"

"""Verification suite runner."""

import math

import numpy as np
import pytest

from specgap import census, eigen, graph6, multipartite, verify
from specgap.census import SOURCE_BLOCK, MixedOrdersError
from specgap.graphs import (
    Graph,
    _to_graphs,
    complete,
    complete_multipartite,
    detect_complete_multipartite,
    path,
)
from specgap.indices import DegenerateSpectrumError
from specgap.verify import SWEEP_BLOCK, partitions, run_check


def _g6_file(tmp_path, graphs, name="census.g6"):
    f = tmp_path / name
    f.write_text("".join(graph6.encode(g) + "\n" for g in graphs))
    return str(f)


def test_partitions_counts():
    # partitions into at least two parts: p(m) - 1
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2)]
    counts = {m: sum(1 for _ in partitions(m)) for m in range(2, 13)}
    assert counts == {2: 1, 3: 2, 4: 4, 5: 6, 6: 10, 7: 14, 8: 21, 9: 29,
                      10: 41, 11: 55, 12: 76}


def test_partitions_are_sorted_tuples():
    for parts in partitions(7):
        assert parts == tuple(sorted(parts))
        assert sum(parts) == 7
        assert len(parts) >= 2


def test_run_check_names():
    # the order of the CLI's --check choices
    assert verify.CHECK_NAMES == (
        "prop1", "prop2a", "prop2b", "prop3", "prop4",
        "bipartite-bound", "classical", "vertex-add",
    )
    with pytest.raises(ValueError):
        run_check("prop99", 5)


def test_prop1_partitions():
    result = run_check("prop1", 6)
    assert result.passed
    assert result.checked == 10
    assert result.failures == ()


def test_prop2a_census():
    result = run_check("prop2a", 5)
    assert result.passed
    # complete multipartite graphs are exempt from this bound family
    assert result.skipped == 6
    assert result.checked == 15


def test_prop2b_power_maximum():
    assert run_check("prop2b", 5).passed
    assert run_check("prop2b", 7).passed


def test_prop2b_witness_spectra_are_compared_unrounded(monkeypatch):
    # a shift far below the tags' six decimals but above the tolerance
    # fails both order-7 witnesses; the tags still show rounded spectra
    spectrum = eigen.spectrum
    monkeypatch.setattr(eigen, "spectrum", lambda g: spectrum(g) + 2e-7)
    result = run_check("prop2b", 7)
    assert result.failures == tuple(
        f"unexpected witness spectrum {tuple(map(float, want))}"
        for want in sorted(verify._POW7_SPECTRA))


@pytest.mark.parametrize("path", [None, "/nonexistent.g6"])
def test_prop2b_order_limit_comes_before_the_census(monkeypatch, path):
    def no_census(order):
        raise AssertionError(f"order {order} was enumerated")

    monkeypatch.setattr(census, "_enumerate", no_census)
    with pytest.raises(ValueError) as err:
        run_check("prop2b", 8, path)
    assert type(err.value) is ValueError
    assert str(err.value) == "the power-maximum statement covers orders <= 7"


def test_prop3_prop4_families():
    assert run_check("prop3", 12).passed
    assert run_check("prop4", 12).passed


def test_bipartite_bound_census():
    result = run_check("bipartite-bound", 5)
    assert result.passed
    assert result.checked == 3
    assert result.skipped == 18


def test_classical_and_vertex_add():
    assert run_check("classical", 5).passed
    assert run_check("vertex-add", 4).passed


def test_classical_extremes_small():
    for order in (4, 5, 6):
        result = run_check("classical", order)
        assert result.passed, result.failures
        assert result.checked == 5


def test_classical_stops_at_order_one_before_any_witness():
    # K1's only eigenvalue is 0, so the census fails before a witness
    # predicate is ever asked about a one-vertex graph
    with pytest.raises(DegenerateSpectrumError, match="^graph @: spectrum"):
        run_check("classical", 1)


def test_classical_extremes_expected_values(tmp_path):
    # a one-graph census fails every extreme its graph does not attain, and
    # each failure line carries the classical value; K4 and P4 between them
    # fail all five
    lines = []
    for g in (complete(4), path(4)):
        result = run_check("classical", 4, _g6_file(tmp_path, [g]))
        assert result.checked == 5
        lines += result.failures
    expected = {
        "max lambda_max": 3.0,
        "min lambda_max": 2.0 * math.cos(math.pi / 5.0),
        "min lambda_min": -2.0,
        "max lambda_min": -1.0,
        "min pow": 2.0 * math.sqrt(3.0),
    }
    for name, value in expected.items():
        assert any(line.startswith(f"{name}: expected {value:.6f} got ")
                   for line in lines), name


def test_classical_extremes_detects_tampering(tmp_path, census4):
    # drop the star: the minimum-power witness is then wrong
    rigged = [g for g in census4 if sorted(g.degrees()) != [1, 1, 1, 3]]
    result = run_check("classical", 4, _g6_file(tmp_path, rigged))
    assert not result.passed
    assert result.checked == 5
    assert [f.split(":")[0] for f in result.failures] == ["min pow"]


@pytest.mark.parametrize("check", [
    "prop2a", "prop2b", "bipartite-bound", "classical", "vertex-add",
])
def test_census_file_must_have_the_order(tmp_path, check):
    f = _g6_file(tmp_path, [complete(4), complete(5)])
    with pytest.raises(MixedOrdersError):
        run_check(check, 4, f)
    with pytest.raises(MixedOrdersError):
        run_check(check, 5, f)


def test_census_file_order_error_names_the_graph_past_the_first_block(
        tmp_path, census5):
    # disconnected entries count as read graphs, so the number is the
    # graph's position among the decoded lines
    graphs = [census5[i % len(census5)] for i in range(SOURCE_BLOCK + 30)]
    graphs[7] = graphs[SOURCE_BLOCK + 3] = Graph(5, 0)
    graphs.insert(SOURCE_BLOCK + 20, complete(6))
    f = _g6_file(tmp_path, graphs)
    with pytest.raises(MixedOrdersError) as err:
        run_check("vertex-add", 5, f)
    assert str(err.value) == (f"{f}: graph {SOURCE_BLOCK + 21} has order 6, "
                              "not the requested 5")


@pytest.mark.parametrize("check", ["prop2a", "vertex-add", "classical"])
def test_census_file_skips_a_disconnected_block_of_another_order(
        tmp_path, monkeypatch, census5, check):
    # a whole file block of disconnected order-6 rows yields no graph, so
    # its order is never checked; the suite sees the order-5 census
    monkeypatch.setattr(census, "SOURCE_BLOCK", 4)
    graphs = census5[:8] + [Graph(6, 0)] * 4 + census5[8:]
    got = run_check(check, 5, _g6_file(tmp_path, graphs))
    assert got == run_check(check, 5)


@pytest.mark.parametrize("check", ["prop1", "prop3", "prop4"])
def test_file_for_a_suite_without_census_is_an_error(check):
    with pytest.raises(verify.NoCensusError, match=check):
        run_check(check, 8, "/nonexistent.g6")


def test_census_file_input(tmp_path):
    f = tmp_path / "tiny.g6"
    f.write_text("C~\nCr\n")  # K4 and C4 only: the star is missing
    result = run_check("classical", 4, str(f))
    assert not result.passed
    assert result.failures


def test_suite_result_semantics():
    r = verify.SuiteResult(name="x", checked=0, skipped=3, failures=())
    assert not r.passed  # vacuous runs do not count as passing
    r = verify.SuiteResult(name="x", checked=1, skipped=0, failures=("bad",))
    assert not r.passed


def test_census_suites_on_the_order8_file(census8_path):
    tallies = {name: run_check(name, 8, census8_path)
               for name in ("prop2a", "bipartite-bound", "vertex-add",
                            "classical")}
    assert {name: (r.checked, r.skipped, r.failures)
            for name, r in tallies.items()} == {
        "prop2a": (11096, 21, ()),
        "bipartite-bound": (178, 10939, ()),
        "vertex-add": (11117, 0, ()),
        "classical": (5, 0, ()),
    }


def test_vertex_add_failures_keep_file_order_across_blocks(
        tmp_path, census7, monkeypatch):
    # a slack this negative fails every cone and every pendant report
    monkeypatch.setattr(multipartite, "_SLACK", -1e9)
    graphs = [census7[i % len(census7)] for i in range(2 * SWEEP_BLOCK + 37)]
    result = run_check("vertex-add", 7, _g6_file(tmp_path, graphs))
    assert (result.checked, result.skipped) == (len(graphs), 0)
    assert result.failures == tuple(
        tag + graph6.encode(g) for g in graphs for tag in ("cone:", "pendant:")
    )


@pytest.mark.parametrize("check", ["prop2a", "bipartite-bound", "vertex-add"])
def test_sweep_tally_does_not_depend_on_the_block_size(
        tmp_path, census6, monkeypatch, check):
    # every checked graph fails, so the failure tags show the sweep order
    monkeypatch.setattr(multipartite, "_SLACK", -1e9)
    graphs = [census6[i % len(census6)] for i in range(SWEEP_BLOCK + 37)]
    f = _g6_file(tmp_path, graphs)
    tallies = {}
    for block in (1, 7, 128, SWEEP_BLOCK):
        monkeypatch.setattr(verify, "SWEEP_BLOCK", block)
        r = run_check(check, 6, f)
        tallies[block] = (r.checked, r.skipped, r.failures)
    first = tallies[1]
    assert first[0] > 0
    assert len(first[2]) == first[0] * (2 if check == "vertex-add" else 1)
    assert first[0] + first[1] == len(graphs)
    assert all(tally == first for tally in tallies.values())


def test_prop2a_skips_a_block_without_an_eigensolve(
        tmp_path, census6, monkeypatch):
    # the middle block is all complete multipartite graphs: no graph in it
    # meets the premise, so it gets no adjacency stack at all
    multi = [complete_multipartite(p) for p in partitions(6)]
    graphs = ([census6[i % len(census6)] for i in range(SWEEP_BLOCK)]
              + [multi[i % len(multi)] for i in range(SWEEP_BLOCK)]
              + census6)
    stacked = []
    build = multipartite._adjacency

    def spy(m, bits, *args):
        stacked.append(len(bits))
        return build(m, bits, *args)

    monkeypatch.setattr(multipartite, "_adjacency", spy)
    result = run_check("prop2a", 6, _g6_file(tmp_path, graphs))
    on_premise = [detect_complete_multipartite(g) is None for g in graphs]
    assert stacked == [sum(on_premise[:SWEEP_BLOCK]),
                       sum(on_premise[2 * SWEEP_BLOCK:])]
    assert (result.checked, result.skipped) == (sum(on_premise),
                                                on_premise.count(False))
    assert result.passed


@pytest.mark.parametrize("check", ["prop2a", "bipartite-bound", "vertex-add",
                                   "classical", "prop2b"])
def test_census_bound_suites_solve_no_graph_on_its_own(tmp_path, monkeypatch,
                                                      census6, check):
    # the suites read pair-bit batches: no graph is eigensolved on its own,
    # no file row becomes a Graph, and a passing sweep encodes no graph6
    def per_graph(g):
        raise AssertionError(f"per-graph eigensolve of {graph6.encode(g)}")

    def no_graphs(source):
        raise AssertionError("the census file was read as Graphs")

    f = _g6_file(tmp_path, census6)
    monkeypatch.setattr(eigen, "spectrum", per_graph)
    monkeypatch.setattr(eigen, "eigensystem", per_graph)
    monkeypatch.setattr(census.Graph6Source, "__iter__", no_graphs)
    encoded = []
    encode = graph6.encode

    def spy(g):
        encoded.append(g)
        return encode(g)

    monkeypatch.setattr(graph6, "encode", spy)
    assert run_check(check, 6).passed
    assert run_check(check, 6, f).passed
    # the census statistics label their extreme graphs, and only those
    assert len(encoded) <= (30 if check in ("classical", "prop2b") else 0)


def _outcome(*args, **kwargs):
    """A suite's result, or the type and text of the error it raises."""
    try:
        return run_check(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("check", ["prop2a", "prop2b", "bipartite-bound",
                                   "vertex-add", "classical"])
def test_census_suites_do_not_depend_on_threads(check, census8_path):
    for order in range(2, 8):
        assert _outcome(check, order, threads=3) == _outcome(check, order), order
    assert (_outcome(check, 8, census8_path, threads=3)
            == _outcome(check, 8, census8_path))


@pytest.mark.parametrize("threads", [0, -1])
def test_run_check_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="^threads must be at least 1$"):
        run_check("prop2a", 5, threads=threads)


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_failures_keep_census_order_on_threads(census7, monkeypatch,
                                                     threads):
    # a bound rigged to fail on rows spread over many small blocks
    chosen = {graph6.encode(g) for g in census7[::41]
              if detect_complete_multipartite(g) is None}
    real = multipartite._nonmultipartite_columns

    def rigged(m, bits):
        why, holds, fields = real(m, bits)
        failing = [graph6.encode(g) in chosen for g in _to_graphs(m, bits)]
        return why, holds & ~np.array(failing, bool), fields

    monkeypatch.setitem(verify._BOUNDS, "prop2a", (("", rigged),))
    monkeypatch.setattr(verify, "SWEEP_BLOCK", 7)
    result = run_check("prop2a", 7, threads=threads)
    assert len(chosen) > 10
    assert result.failures == tuple(graph6.encode(g) for g in census7
                                    if graph6.encode(g) in chosen)

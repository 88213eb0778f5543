"""Verification suite runner."""

import math

import pytest

from specgap import graph6, verify
from specgap.census import SOURCE_BLOCK, MixedOrdersError
from specgap.graphs import Graph, complete, path
from specgap.verify import partitions, run_check


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
    assert set(verify.CHECK_NAMES) == {
        "prop1", "prop2a", "prop2b", "prop3", "prop4",
        "bipartite-bound", "classical", "vertex-add",
    }
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

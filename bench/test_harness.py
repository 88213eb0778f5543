"""Self-tests of the benchmark harness: python3 -m pytest -q bench"""

from __future__ import annotations

import csv
import io
import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402

SMALL = 3000  # connected graphs in the small census streams used here


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_sum_to_root_without_double_counting():
    # run [0, 20]: a [1, 9] holds b [2, 5] and b again [6, 8]; c [10, 19]
    clock = FakeClock([0, 1, 2, 5, 6, 8, 9, 10, 19, 20])
    t = spans.Tracer(clock=clock)
    t.start()
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    t.enter("c")
    t.exit()
    t.stop()
    recs = {r["name"]: r for r in t.records()}
    assert recs["run"]["s"] == 20 and recs["run"]["self_s"] == 20 - 8 - 9
    assert recs["a"]["s"] == 8 and recs["a"]["self_s"] == 8 - 5
    assert recs["b"]["calls"] == 2 and recs["b"]["s"] == 5
    assert recs["b"]["parent"] == recs["a"]["id"]
    assert recs["c"]["self_s"] == 9
    assert sum(r["self_s"] for r in recs.values()) == recs["run"]["s"]


def test_unbalanced_spans_are_an_error():
    t = spans.Tracer(clock=FakeClock([0, 1, 2]))
    t.start()
    t.enter("a")
    with pytest.raises(RuntimeError):
        t.stop()


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    ia = inputs.census9_input(a, 7, SMALL)
    ib = inputs.census9_input(b, 7, SMALL)
    ic = inputs.census9_input(c, 8, SMALL)
    assert Path(ia["path"]).read_bytes() == Path(ib["path"]).read_bytes()
    assert Path(ia["path"]).read_bytes() != Path(ic["path"]).read_bytes()
    with np.load(ia["table"]) as za, np.load(ib["table"]) as zb:
        assert np.array_equal(za["masks"], zb["masks"])
        assert np.array_equal(za["values"], zb["values"])
    assert ia["disconnected"] == ib["disconnected"] > 0
    assert inputs.canon_sample(7, 32) == inputs.canon_sample(7, 32)
    assert inputs.canon_sample(7, 32) != inputs.canon_sample(8, 32)


def test_stream_matches_the_acceptance_generator():
    from specgap.graphs import Graph, is_connected

    masks, conn = inputs.census9_stream(90125, 500)
    assert conn.sum() == 500 and conn[-1]
    rng = np.random.default_rng(90125)
    drawn = rng.integers(0, 1 << 36, size=inputs.CENSUS9_BATCH, dtype=np.uint64)
    assert np.array_equal(masks, drawn[:masks.size])
    assert [is_connected(Graph(9, int(m))) for m in masks] == conn.tolist()


def test_codec_round_trips_through_specgap():
    from specgap import graph6

    masks = inputs.census9_stream(3, 200)[0]
    for line, mask in zip(inputs.encode_g6(9, masks).split(), masks):
        assert graph6.decode(line).bits == int(mask)
        assert inputs.decode_g6(line) == (9, int(mask))


def _census_rows(tmp_path: Path) -> tuple[list[dict], dict]:
    from specgap import cli

    info = inputs.census9_input(tmp_path, 11, SMALL)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["census", "--file", info["path"], "--out", str(out),
                         "--threads", "1"]) == 0
    with open(out / "stats.csv", newline="") as fh:
        return list(csv.DictReader(fh)), info


def test_oracle_accepts_the_census_and_flags_a_perturbed_row(tmp_path):
    rows, info = _census_rows(tmp_path)
    attempted, problems = inputs.check_census_stats(rows, info["table"])
    assert problems == [] and attempted >= 5 * 9
    gap = next(r for r in rows if r["index"] == "gap")
    gap["kurtosis"] = f"{float(gap['kurtosis']) + 2e-6:.6f}"
    _, problems = inputs.check_census_stats(rows, info["table"])
    assert len(problems) == 1 and "gap.kurtosis" in problems[0]


def test_oracle_flags_a_witness_that_is_not_extreme(tmp_path):
    rows, info = _census_rows(tmp_path)
    lmax = next(r for r in rows if r["index"] == "lambda_max")
    lmax["argmax_g6"] = lmax["argmin_g6"]
    _, problems = inputs.check_census_stats(rows, info["table"])
    assert problems and all("argmax_g6" in p for p in problems)
    lmax["argmax_g6"] = "H?? bad"
    _, problems = inputs.check_census_stats(rows, info["table"])
    assert problems == ["stats.csv lambda_max.argmax_g6: 'H?? bad' is not graph6"]


def test_install_patches_every_caller_binding_and_uninstall_restores(tmp_path):
    from specgap import census, graphs, multipartite

    before = (census.is_connected, multipartite.detect_complete_multipartite,
              census.Graph6Source.__iter__)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert census.is_connected is graphs.is_connected is not before[0]
        assert multipartite.detect_complete_multipartite is not before[1]
        installed = spans.installed()
        assert "specgap.census.is_connected" in installed
        assert "specgap.census.Graph6Source.__iter__" in installed
        path = tmp_path / "g.g6"
        path.write_bytes(inputs.encode_g6(9, inputs.census9_stream(5, 300)[0]))
        tracer.start()
        census.run_census(census.Graph6Source(path), threads=1)
        tracer.stop()
    finally:
        uninstall()
    assert spans.installed() == []
    assert (census.is_connected, multipartite.detect_complete_multipartite,
            census.Graph6Source.__iter__) == before
    recs = tracer.records()
    by_id = {r["id"]: r for r in recs}
    table = spans.layer_table(recs)
    assert table["census.Graph6Source"]["yielded"] == 300
    assert table["graph6.decode"]["calls"] == table["census.Graph6Source"]["read"]
    for r in recs:
        if r["name"] in ("graph6.decode", "graphs.is_connected"):
            assert by_id[r["parent"]]["name"] == "census.Graph6Source"
    assert abs(sum(r["self_s"] for r in recs) - recs[0]["s"]) < 1e-9

"""Census of connected graphs: enumeration, graph6 ingestion, statistics.

Each isomorphism class is represented by its canonical graph: the smallest
edge bitset over all vertex relabelings, found by an exact
individualization-refinement search (labels assigned from the highest down,
candidates restricted by an ordered partition of the unlabeled vertices).
extend_census grows a complete order-m census to order m+1 by attaching a
new vertex in every possible way and keeping one canonical graph per class
(complete, because every connected graph has a non-cut vertex);
enumerate_connected runs that extension from the one-vertex graph, up to
order 8 (CANON_MAX_ORDER).  Larger orders come from graph6 files.

Graph6Source, run_census and the verify sweeps cut their graph streams
into same-order blocks with one cutter, _blocks.  Graph6Source decodes each
line on its own and decides connectivity per block, at every order.
run_census eigensolves each block in one batch and merges per-block moment
accumulators in a fixed order, so results are identical for any number of
threads.
"""

from __future__ import annotations

import csv
import functools
import logging
import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import eigen, graph6
from .graphs import Graph, _adjacency_stack, _connected
from .graphs import is_connected  # noqa: F401 - the bench tracer patches it here
from .indices import INDEX_NAMES, IndexStats, indices_batch

log = logging.getLogger(__name__)

CANON_MAX_ORDER = 8
HIST_BIN_WIDTH = 0.1
SOURCE_BLOCK = 2048  # graphs per connectivity block of Graph6Source

# connected graphs per order, for reporting and self-checks (OEIS A001349)
KNOWN_CONNECTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853,
    8: 11117, 9: 261080, 10: 11716571,
}


class OrderTooLargeError(ValueError):
    """Exhaustive work was requested beyond its supported order."""


class MixedOrdersError(ValueError):
    """A census source produced graphs of different orders."""


class EmptySourceError(ValueError):
    """A census source produced no graphs."""


class Graph6FileError(ValueError):
    """A graph6 file line failed to decode; message carries file:line."""


# ---------------------------------------------------------------------------
# canonical forms by individualization-refinement

def _canonical_mask(nb: Sequence[int]) -> int:
    """Smallest edge bitset over all relabelings of the graph with these
    per-vertex neighbor masks.

    Bits are column-major, so the column of the highest label outranks every
    lower one.  Labels are handed out from the top down while an ordered
    partition of the unlabeled vertices (cells low-to-high, each owning a
    range of the remaining labels) records what the columns fixed so far
    force.  The vertex for the next label comes from the top cell; its
    column is smallest when its neighbors take the lowest labels of each
    cell, so only its neighbor count per cell matters.  Every candidate
    reaching the minimal column survives, and every cell then splits into
    neighbors (below) and non-neighbors (above).  The search runs level by
    level over all surviving partitions, so it is exact; partitions reached
    twice are merged (the remaining columns depend on nothing else), and a
    candidate whose twin (same neighbors apart from each other) was already
    tried is skipped, since swapping twins is an automorphism that fixes the
    partition.
    """
    m = len(nb)
    states = {((1 << m) - 1,)}
    out = 0
    for k in range(m - 1, 0, -1):
        best = -1
        survivors: set[tuple[int, ...]] = set()
        for cells in states:
            top = cells[-1]
            tried: list[int] = []
            rest = top
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                nu = nb[u]
                if any(nu & ~(1 << w) == nb[w] & ~low for w in tried):
                    continue
                tried.append(u)
                col = 0
                base = 0
                split: list[int] = []
                for cell in cells[:-1] + (top ^ low,):
                    if not cell:
                        continue
                    inner = cell & nu
                    col |= ((1 << inner.bit_count()) - 1) << base
                    base += cell.bit_count()
                    if inner:
                        split.append(inner)
                    if inner != cell:
                        split.append(cell ^ inner)
                if best < 0 or col < best:
                    best = col
                    survivors = {tuple(split)}
                elif col == best:
                    survivors.add(tuple(split))
        out |= best << (k * (k - 1) // 2)
        states = survivors
    return out


def _check_canon_order(order: int) -> None:
    if order > CANON_MAX_ORDER:
        raise OrderTooLargeError(
            f"canonical forms are supported up to order {CANON_MAX_ORDER}"
        )


def canonical_bits(g: Graph) -> int:
    """Smallest edge bitset over all relabelings of g (order <= 8).

    Computed by the exact refinement search of _canonical_mask.
    """
    _check_canon_order(g.order)
    return _canonical_mask(g.neighbor_masks())


def _extend(graphs: Sequence[Graph]) -> list[Graph]:
    """Canonical classes of every one-vertex extension, ascending bits."""
    m = graphs[0].order
    new = 1 << m
    classes: set[int] = set()
    for g in graphs:
        nb = g.neighbor_masks()
        for attach in range(1, new):
            cand = [x | new if attach >> i & 1 else x for i, x in enumerate(nb)]
            cand.append(attach)
            classes.add(_canonical_mask(cand))
    return [Graph(m + 1, b) for b in sorted(classes)]


def enumerate_connected(m: int) -> list[Graph]:
    """All connected graphs on m vertices, one canonical graph per class.

    Built by extending the one-vertex graph one vertex at a time (see
    extend_census) and returned in ascending bitset order; canonical forms
    cap it at order CANON_MAX_ORDER.
    """
    if m < 1:
        raise ValueError("order must be positive")
    _check_canon_order(m)
    graphs = [Graph(1, 0)]
    for _ in range(m - 1):
        graphs = _extend(graphs)
    return graphs


def extend_census(graphs: Sequence[Graph]) -> list[Graph]:
    """Grow a complete order-m census to order m+1 (canonical, connected).

    Attaches a new vertex to every nonempty neighborhood of every input
    graph, puts each candidate in canonical form (the smallest edge bitset
    over all relabelings, found by refinement search) and dedupes; the
    result is in ascending bitset order.  Complete because deleting a
    non-cut vertex of any connected graph lands back in the order-m census.
    """
    if not graphs:
        raise EmptySourceError("no graphs to extend")
    m = graphs[0].order
    if any(g.order != m for g in graphs):
        raise MixedOrdersError("extend_census needs a single-order census")
    _check_canon_order(m + 1)
    return _extend(graphs)


# ---------------------------------------------------------------------------
# graph6 file ingestion

class Graph6Source:
    """Iterable over the connected graphs of a graph6 file.

    Lines are decoded one at a time and buffered in blocks of one order (at
    most SOURCE_BLOCK graphs); each block's connectivity is decided in one
    vectorized pass, and its connected graphs are yielded in file order.
    Disconnected entries are skipped and counted in rejected_disconnected;
    read and rejected_disconnected count up as graphs are yielded, so at
    each yield read is the yielded graph's number in the file.  Malformed
    lines raise Graph6FileError with the file name and line number, before
    the rest of their block is yielded.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self.read = 0
        self.rejected_disconnected = 0

    def __iter__(self) -> Iterator[Graph]:
        self.read = 0
        self.rejected_disconnected = 0
        for block in _blocks(self._decoded(), SOURCE_BLOCK):
            for g, connected in zip(block, _connected(block).tolist()):
                self.read += 1
                if connected:
                    yield g
                else:
                    self.rejected_disconnected += 1
        if self.rejected_disconnected:
            log.warning("%s: skipped %d disconnected graph(s)", self.path,
                        self.rejected_disconnected)

    def _decoded(self) -> Iterator[Graph]:
        """The decoded graphs of the file, in file order."""
        header = graph6.HEADER.encode()
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line.startswith(header):
                    line = line[len(header):]
                if not line:
                    continue
                try:
                    g = graph6.decode(line)
                except graph6.Graph6Error as exc:
                    raise Graph6FileError(f"{self.path}:{lineno}: {exc}") from exc
                yield g


def _blocks(graphs: Iterable[Graph], size: int) -> Iterator[list[Graph]]:
    """Consecutive graphs of one order, at most size (>= 1) per block;
    each is yielded once full, or once the next graph has another order."""
    block: list[Graph] = []
    for g in graphs:
        if block and g.order != block[0].order:
            yield block
            block = []
        block.append(g)
        if len(block) == size:
            yield block
            block = []
    if block:
        yield block


# ---------------------------------------------------------------------------
# the census pipeline

class Histogram:
    """Value histogram; bin k covers [k*w, (k+1)*w) for w = HIST_BIN_WIDTH."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def update_many(self, values: np.ndarray) -> None:
        bins = np.floor(np.divide(values, HIST_BIN_WIDTH)).astype(np.int64)
        uniq, cnt = np.unique(bins, return_counts=True)
        self.counts.update(dict(zip(uniq.tolist(), cnt.tolist())))

    def absorb(self, other: "Histogram") -> None:
        self.counts.update(other.counts)

    def rows(self) -> list[tuple[float, float, int]]:
        return [
            (b * HIST_BIN_WIDTH, (b + 1) * HIST_BIN_WIDTH, self.counts[b])
            for b in sorted(self.counts)
        ]


@dataclass
class CensusReport:
    """Aggregated spectral-index statistics over one census."""

    order: int
    count: int
    stats: dict[str, IndexStats]
    histograms: dict[str, Histogram]
    rejected_disconnected: int = 0

def _chunk_payload(graphs: list[Graph], zero_tol: float | None):
    vals = eigen.spectra_batch(_adjacency_stack(graphs))
    per_index = indices_batch(vals, zero_tol)
    witness = functools.cache(lambda i: graph6.encode(graphs[i]))
    stats = {name: IndexStats() for name in INDEX_NAMES}
    hists = {name: Histogram() for name in INDEX_NAMES}
    for name in INDEX_NAMES:
        stats[name].update_many(per_index[name], witness)
        hists[name].update_many(per_index[name])
    return len(graphs), stats, hists


def run_census(source: Iterable[Graph], zero_tol: float | None = None,
               threads: int = 1, chunk_size: int = 2048) -> CensusReport:
    """Stream a single-order graph source into a CensusReport.

    Chunks are eigensolved in batch; per-chunk accumulators merge in chunk
    order, so the report is identical for any thread count.
    """
    if min(threads, chunk_size) < 1:
        raise ValueError("threads and chunk_size must be at least 1")
    stats = {name: IndexStats() for name in INDEX_NAMES}
    hists = {name: Histogram() for name in INDEX_NAMES}
    count = 0
    order = 0

    def merge(chunk_result) -> None:
        nonlocal count
        n, st, hs = chunk_result
        count += n
        for name in INDEX_NAMES:
            stats[name].absorb(st[name])
            hists[name].absorb(hs[name])

    def chunks() -> Iterator[list[Graph]]:
        nonlocal order
        for chunk in _blocks(source, chunk_size):
            m = chunk[0].order
            if order and m != order:
                raise MixedOrdersError(f"census mixes orders {order} and {m}")
            order = m
            yield chunk

    if threads == 1:
        for chunk in chunks():
            merge(_chunk_payload(chunk, zero_tol))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            window: deque = deque()
            for chunk in chunks():
                window.append(pool.submit(_chunk_payload, chunk, zero_tol))
                if len(window) >= threads + 2:
                    merge(window.popleft().result())
            while window:
                merge(window.popleft().result())

    if count == 0:
        raise EmptySourceError("census source yielded no graphs")
    rejected = getattr(source, "rejected_disconnected", 0)
    return CensusReport(order=order, count=count, stats=stats,
                        histograms=hists, rejected_disconnected=rejected)


# ---------------------------------------------------------------------------
# extremal queries

@dataclass(frozen=True)
class ExtremalResult:
    index: str
    direction: str
    value: float
    witnesses: tuple[str, ...]
    overflow: int
    count: int


def extremal(source: Iterable[Graph], index: str, direction: str,
             zero_tol: float | None = None) -> ExtremalResult:
    """Extreme value of one index over a source, with graph6 witnesses."""
    if index not in INDEX_NAMES:
        raise ValueError(f"unknown index {index!r}; expected one of {INDEX_NAMES}")
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    report = run_census(source, zero_tol)
    value, wits, over = report.stats[index].finalize().extreme(direction)
    assert value is not None  # count >= 1 guaranteed by run_census
    return ExtremalResult(
        index=index, direction=direction, value=value,
        witnesses=wits, overflow=over, count=report.count,
    )


# ---------------------------------------------------------------------------
# CSV output

def format_float(value: float | None) -> str:
    """Six decimals, no negative zero, empty for a missing value; the one
    float format of stats.csv and the CLI."""
    if value is None:
        return ""
    out = f"{value:.6f}"
    return "0.000000" if out == "-0.000000" else out


def write_stats_csv(report: CensusReport, path: str | os.PathLike[str]) -> None:
    """One row per index: moments, extremes, and extreme witnesses."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "count", "mean", "std", "skewness", "kurtosis",
                    "min", "max", "argmin_g6", "argmax_g6"])
        for name in INDEX_NAMES:
            s = report.stats[name].finalize()
            w.writerow([
                name, s.count,
                *map(format_float, (s.mean, s.std, s.skewness, s.kurtosis,
                                    s.minimum, s.maximum)),
                ";".join(s.min_witnesses), ";".join(s.max_witnesses),
            ])


def write_histogram_csvs(report: CensusReport,
                         out_dir: str | os.PathLike[str]) -> list[str]:
    """One hist_<index>.csv per index; returns the written paths."""
    paths = []
    for name in INDEX_NAMES:
        path = os.path.join(os.fspath(out_dir), f"hist_{name}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_lo", "bin_hi", "count"])
            for lo, hi, cnt in report.histograms[name].rows():
                w.writerow([f"{lo:.6f}", f"{hi:.6f}", cnt])
        paths.append(path)
    return paths

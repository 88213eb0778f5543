"""Census of connected graphs: enumeration, graph6 ingestion, statistics.

Each isomorphism class is represented by its canonical graph: the smallest
edge bitset over all vertex relabelings, found by an exact
individualization-refinement search (labels assigned from the highest down,
candidates restricted by an ordered partition of the unlabeled vertices).
_canonical_forms runs that search for a whole block of graphs at once in
numpy, level by level, and is the one source of canonical forms.
extend_census grows a complete order-m census to order m+1 by attaching a
new vertex in every possible way and keeping one canonical graph per class
(complete, because every connected graph has a non-cut vertex).  As in
McKay's canonical construction path, most candidates are dropped before
their search, decided from tables of the parents alone: twin pruning from
their lower-twin masks and, from a complete census, the canonical-deletion
filter from their degrees and the component table of every parent with
one vertex deleted (see _extend).  No candidate is re-analysed before its
search.
_enumerate runs that extension from the one-vertex graph for the orders
whose class count KNOWN_CONNECTED_COUNTS holds, 1 to 10, checking each
step's count; between steps the census is its int64 forms, which
_form_bits decodes to the next step's parents.  enumerate_connected hands
the classes out as Graphs.  Forms hold orders up to FORM_MAX_ORDER, which
bounds canonical_bits and extend_census.

The census path is columnar, and there is one of it.  _census_source
chooses what the CLI and the verify suites read: a Graph6Source over a
graph6 file, or _Enumeration, the built-in census, its forms decoded
SOURCE_BLOCK at a time.  Both hand over (order, pair bits, numbers)
batches.  Graph6Source reads its file in blocks of raw lines and decodes a
block of one order byte and width, all LF or all CRLF lines, in one numpy
pass into pair bits (graphs.py), one row per graph; other blocks go line
by line through graph6.decode, so every error keeps its file:line text.
Connectivity is decided per block on the pair bits, and _chunks regroups
the connected rows into chunks of exactly chunk_size graphs.  A census has
one order: _chunks is the one place that enforces it, raising
MixedOrdersError at the first graph of a second order, whatever the chunk
size (_blocks cuts a Graph iterable into one-order blocks for it).
run_census eigensolves each chunk in one batch and merges per-chunk moment
accumulators in chunk order, so a report depends neither on where the
batches fall nor on the number of threads.  A Graph is built only for a
witness label, or for a public caller: enumerate_connected, extend_census,
a Graph iterable given to run_census, or iteration of a Graph6Source.  The
verify suites cut the same batches with _chunks, for their bound checks
and for _census_report, and run their blocks in the same ordered thread
window, _ordered.
"""

from __future__ import annotations

import csv
import functools
import itertools
import logging
import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import eigen, graph6
from .graphs import (Graph, _adjacency, _connected_rows, _neighbors,
                     _pair_bits, _to_graphs, pair_count)
from .graphs import is_connected  # noqa: F401 - the bench tracer patches it here
from .indices import INDEX_NAMES, IndexStats, indices_batch

log = logging.getLogger(__name__)

HIST_BIN_WIDTH = 0.1
SOURCE_BLOCK = 2048  # file lines per block that Graph6Source reads
CHUNK_SIZE = 2048  # graphs per eigensolved chunk unless a caller says otherwise
EXTEND_BLOCK = 2048  # about this many candidates per _extend block and search call
FORM_MAX_ORDER = 11  # int64 canonical forms hold pair_count(11) = 55 bits

# connected graphs per order, for reporting and self-checks (OEIS A001349)
KNOWN_CONNECTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853,
    8: 11117, 9: 261080, 10: 11716571,
}


class OrderTooLargeError(ValueError):
    """Exhaustive work was requested beyond its supported order."""


class MixedOrdersError(ValueError):
    """A census source produced graphs of different orders."""


class DisconnectedInputError(ValueError):
    """A graph given to extend_census is not connected."""


class EmptySourceError(ValueError):
    """A census source produced no graphs."""


class Graph6FileError(ValueError):
    """A graph6 file line failed to decode; message carries file:line."""


# ---------------------------------------------------------------------------
# canonical forms by individualization-refinement

@functools.lru_cache(maxsize=16)
def _mask_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per vertex mask of order m: its bits, their number (uint8), that
    many low bits set, and its bits spread out to one per 4-bit nibble;
    computed once per order and read-only, since callers share them."""
    members = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
    popcount = members.sum(1, dtype=np.uint8)
    low_ones = (np.uint16(1) << popcount) - np.uint16(1)
    tables = (members, popcount, low_ones, members @ (1 << 4 * np.arange(m)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _twin_masks(m: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an order-m pair-bit batch (m <= 16), as (n, m) uint16:
    each vertex's neighbor mask, and its lower-twin mask, the lower
    vertices with the same neighbors apart from each other.  Twins form an
    equivalence, so the lowest vertex of each class has mask 0."""
    vert = np.arange(m)
    weight = (1 << vert).astype(np.uint16)
    nb = _neighbors(m, bits).astype(np.uint16, copy=False)
    lower = (nb[:, :, None] ^ nb[:, None, :]) & ~(weight[:, None] | weight) == 0
    lower &= vert[:, None] > vert
    return nb, (lower * weight).sum(2, dtype=np.uint16)


def _components(m: int, nb: np.ndarray) -> np.ndarray:
    """From the (n, m) uint16 neighbor masks of connected graphs, the
    (n, m, m) table whose entry [p, w, v] is the mask of v's component in
    graph p with w deleted, and all m vertices for v = w (w with the
    components of its neighbors); by Warshall's closure over the masks
    with w removed, vertex by vertex."""
    weight = (1 << np.arange(m)).astype(np.uint16)
    reach = nb[:, None, :] & ~weight[:, None] | weight
    for k in range(m):
        reach |= (reach >> k & 1) * reach[:, :, k, None]
    return reach


def _canonical_forms(m: int, bits: np.ndarray) -> np.ndarray:
    """Per row of an order-m pair-bit batch, the smallest edge bitset over
    all relabelings of that graph, as int64.

    Bits are column-major, so the column of the highest label outranks every
    lower one.  Labels are handed out from the top down while an ordered
    partition of the unlabeled vertices (cells low-to-high, each owning a
    range of the remaining labels) records what the columns fixed so far
    force.  The vertex for the next label comes from the top cell; its
    column is smallest when its neighbors take the lowest labels of each
    cell, so only its neighbor count per cell matters.  Every candidate
    reaching the minimal column survives, and every cell then splits into
    neighbors (below) and non-neighbors (above).  The search runs level by
    level over all surviving partitions, so it is exact; partitions of one
    row reached twice are merged (the remaining columns depend on nothing
    else), and a candidate with a lower twin (same neighbors apart from
    each other) in the top cell is skipped: swapping twins is an
    automorphism that fixes the partition, and twins form an equivalence,
    so the lowest of them in the cell stands for all.

    Every row's search runs at once, level by level.  A state is a row
    number and its partition, held as uint16 vertex masks, one per cell
    (the arrays are cells by states); the states of a row are adjacent.
    Per level: the (state, candidate) pairs, each candidate's column from
    a lookup of its neighbor count in every cell, each row's minimal column
    by np.minimum.reduceat over its pairs, and the split partitions of the
    pairs that reach it, deduped per row by sorting int64 keys: the row
    number above one 4-bit nibble per vertex, the 1-based rank of its cell
    (0 once labeled).  Rows never interact, so a batch of any size is
    searched EXTEND_BLOCK rows at a time, far below the 2^(63 - 4m) rows
    the keys hold.  Forms are exact up to order FORM_MAX_ORDER (55 pair
    bits), OrderTooLargeError beyond it.
    """
    n = len(bits)
    if m > FORM_MAX_ORDER:
        raise OrderTooLargeError(f"canonical forms of order {m} overflow int64")
    if n > EXTEND_BLOCK:
        return np.concatenate([_canonical_forms(m, bits[k:k + EXTEND_BLOCK])
                               for k in range(0, n, EXTEND_BLOCK)])
    out = np.zeros(n, np.int64)
    if m < 2 or not n:
        return out
    weight = (1 << np.arange(m)).astype(np.uint16)
    nb, lowtwin = _twin_masks(m, bits)
    members, popcount, low_ones, nibbles = _mask_tables(m)
    row = every = np.arange(n)
    cells = np.full((1, n), (1 << m) - 1, np.uint16)
    top = np.zeros(n, np.intp)
    for k in range(m - 1, 0, -1):
        # candidates: the top cell's vertices without a lower twin there
        topmask = cells[top, np.arange(len(top))]
        state, u = np.nonzero(np.take(members, topmask, 0)
                              & (np.take(lowtwin, row, 0) & topmask[:, None] == 0))
        prow = np.take(row, state)
        nbu = np.take(nb, prow * m + u)
        # a candidate's neighbors take the lowest labels of each cell
        size = np.take(popcount, cells)
        base = np.cumsum(size, 0, dtype=np.uint16) - size
        col = (np.take(low_ones, np.take(cells, state, 1) & nbu)
               << np.take(base, state, 1)).sum(0, np.uint16)
        best = np.minimum.reduceat(col, np.searchsorted(prow, every))
        out |= best.astype(np.int64) << (k * (k - 1) // 2)
        if k == 1:
            break
        keep = np.flatnonzero(col == np.take(best, prow))
        state, u, prow, nbu = state[keep], u[keep], prow[keep], nbu[keep]
        # every cell splits into u's neighbors, then the rest without u
        cell = np.take(cells, state, 1)
        inner = cell & nbu
        split = np.stack((inner, (cell ^ inner) & ~weight[u]), 1).reshape(-1, len(keep))
        # one state per distinct partition of a row, its empty cells dropped
        rank = np.cumsum(split != 0, 0, dtype=np.int8)
        keys = (rank * np.take(nibbles, split)).sum(0) | prow << 4 * m
        order = np.argsort(keys)
        keys = keys[order]
        order = order[np.concatenate(([True], keys[1:] != keys[:-1]))]
        row = prow[order]
        split, rank = np.take(split, order, 1), np.take(rank, order, 1)
        top = rank[-1] - 1
        cells = np.zeros((len(split) + 1, len(order)), np.uint16)
        slot = np.where(split != 0, rank, 0).astype(np.intp) * len(order)
        np.put(cells, slot + np.arange(len(order)), split)
        cells = cells[1:top.max() + 2]
    return out


def canonical_bits(g: Graph) -> int:
    """Smallest edge bitset over all relabelings of g, by the exact
    refinement search of _canonical_forms (order <= FORM_MAX_ORDER)."""
    return int(_canonical_forms(*_pair_bits([g]))[0])


def _form_bits(m: int, forms: np.ndarray) -> np.ndarray:
    """The pair bits of order-m forms (int64 edge bitsets), one uint8 row
    per form."""
    return np.unpackbits(forms.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8),
                         axis=1, count=pair_count(m), bitorder="little")


def _extend(m: int, parents: np.ndarray, complete: bool) -> tuple[int, np.ndarray]:
    """Order m + 1 and the forms of the canonical classes of the
    one-vertex extensions of the connected order-m graphs with these pair
    bits, ascending int64.

    A candidate row is its parent's bits followed by the attach column
    (pair (i, m) set iff the new vertex m is joined to i, i in the attach
    set S), built for a few parents at a time, about EXTEND_BLOCK rows
    before pruning.  Which rows are built is decided from tables of the
    parents alone (degrees, lower twins by _twin_masks, components by
    _components), so no candidate is analysed before its search.  Twin
    pruning: swapping two twins of the parent (same neighbors apart from
    each other) is an automorphism, so S is built only if every vertex of
    S has its lower twins in S.  Canonical-deletion filter, when complete
    (the parents hold every connected class of order m): a candidate H is
    dropped when an old vertex w has a larger degree in H than the new one
    and H - w is connected.  An old vertex i has degree deg(i) + s_i in H
    and the new one |S|; H - w is connected iff S meets the component of
    every other vertex in the parent with w deleted.  Nothing is lost: in
    every connected order-(m+1) class, a non-cut vertex w of largest degree
    deletes to some parent's class, and the candidate that attaches the
    new vertex where w sat (up to twin swaps) has only cut vertices of
    larger degree.  The candidates a block keeps run the refinement search
    in one call; the distinct forms of all calls are the result.
    """
    members, popcount = _mask_tables(m)[:2]
    attach, sets = members[1:].astype(np.uint8), np.arange(1, 1 << m, dtype=np.uint16)
    nb, lowtwin = _twin_masks(m, parents)
    degrees = np.take(popcount, nb)
    reach = _components(m, nb) if complete else None
    group = -(-EXTEND_BLOCK // len(attach))
    forms = []
    for start in range(0, len(parents), group):
        block = slice(start, start + group)
        # per (parent, S): no vertex of S has a lower twin outside S
        keep = np.bitwise_or.reduce(lowtwin[block, None] * attach, 2) & ~sets == 0
        if complete:  # and no vertex w outranks the new one with H - w connected
            connected = (reach[block, None] & sets[:, None, None] != 0).all(3)
            outranks = degrees[block, None] + attach > popcount[1:, None]
            keep &= ~(connected & outranks).any(2)
        rows_of, attach_of = np.nonzero(keep)
        rows = np.concatenate([parents[block][rows_of], attach[attach_of]], 1)
        forms.append(_canonical_forms(m + 1, rows))
    forms = np.concatenate(forms)
    forms.sort()
    return m + 1, forms[np.concatenate(([True], forms[1:] != forms[:-1]))]


def enumerate_connected(m: int) -> list[Graph]:
    """All connected graphs on m vertices, one canonical graph per class,
    in ascending bitset order: the Graphs of _enumerate(m)."""
    return [Graph(m, form) for form in _enumerate(m)[1].tolist()]


def _enumerate(m: int) -> tuple[int, np.ndarray]:
    """The order and form of every connected class of order m, ascending
    int64.

    Built by extending the one-vertex graph one vertex at a time (see
    extend_census), each step from a complete census, so both of its
    filters apply; a step that yields other than KNOWN_CONNECTED_COUNTS
    classes raises RuntimeError.  An order that table lacks raises
    OrderTooLargeError before any extension.
    """
    if m < 1:
        raise ValueError("order must be positive")
    if m not in KNOWN_CONNECTED_COUNTS:
        raise OrderTooLargeError(
            f"the built-in census stops at order {max(KNOWN_CONNECTED_COUNTS)}, "
            "the last known class count")
    k, forms = 1, np.zeros(1, np.int64)
    while k < m:
        k, forms = _extend(k, _form_bits(k, forms), complete=True)
        if len(forms) != KNOWN_CONNECTED_COUNTS[k]:
            raise RuntimeError(f"order {k}: built {len(forms)} classes, "
                               f"not {KNOWN_CONNECTED_COUNTS[k]}")
    return k, forms


def extend_census(graphs: Sequence[Graph]) -> list[Graph]:
    """Grow a complete order-m census to order m+1 (canonical, connected).

    Attaches a new vertex to every nonempty neighborhood of every input
    graph, puts each candidate in canonical form (the smallest edge bitset
    over all relabelings, found by refinement search) and dedupes; the
    result is in ascending bitset order.  Complete because deleting a
    non-cut vertex of any connected graph lands back in the order-m census.

    Attach sets that differ by a swap of twins of their graph are built
    once (twin pruning, for any input).  When the input holds the whole
    census, KNOWN_CONNECTED_COUNTS[m] distinct classes, the
    canonical-deletion filter of _extend also drops each candidate whose
    class another route builds, one that deletes a vertex of larger degree;
    for any other input it does not apply, since a connected deletion of a
    candidate need not be one of the input graphs.  Either way the result
    is every class one vertex away from the input.  DisconnectedInputError
    if an input graph is not connected, OrderTooLargeError past FORM_MAX_ORDER.
    """
    if not graphs:
        raise EmptySourceError("no graphs to extend")
    m = graphs[0].order
    if any(g.order != m for g in graphs):
        raise MixedOrdersError("extend_census needs a single-order census")
    _, bits = _pair_bits(graphs)
    disconnected = np.flatnonzero(~_connected_rows(m, bits))
    if len(disconnected):
        raise DisconnectedInputError(
            f"extend_census needs connected graphs; graph {disconnected[0]} "
            "is not connected")
    classes = set(_canonical_forms(m, bits).tolist())
    complete = len(classes) == KNOWN_CONNECTED_COUNTS.get(m)
    return [Graph(m + 1, form) for form in _extend(m, bits, complete)[1].tolist()]


# ---------------------------------------------------------------------------
# graph6 file ingestion

class Graph6Source:
    """Iterable over the connected graphs of a graph6 file.

    The file is read in blocks of SOURCE_BLOCK lines; a block of one order
    byte and width, all LF or all CRLF lines, is decoded columnar
    (graph6.decode_block), any other line by line with graph6.decode.
    Connectivity is decided per block, and the connected graphs come out in
    file order: as Graphs when iterated, as pair-bit batches to run_census.
    Disconnected entries are skipped and counted in rejected_disconnected;
    when iterated, read and rejected_disconnected count up as graphs are
    yielded, so at each yield read is the yielded graph's number in the file.
    Malformed lines raise Graph6FileError with the file name and line number,
    before the rest of their block is yielded.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self.read = 0
        self.rejected_disconnected = 0

    def __iter__(self) -> Iterator[Graph]:
        yielded = 0
        for m, bits, reads in self._batches():
            for g, read in zip(_to_graphs(m, bits), reads.tolist()):
                yielded += 1
                self.read, self.rejected_disconnected = read, read - yielded
                yield g

    def _batches(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Per block: the order, the pair bits of the connected graphs, and
        each one's number in the file."""
        self.read = self.rejected_disconnected = 0
        read = kept = 0
        for m, bits in self._read_blocks():
            rows = np.flatnonzero(_connected_rows(m, bits))
            yield m, bits[rows], read + 1 + rows
            read += len(bits)
            kept += len(rows)
        self.read, self.rejected_disconnected = read, read - kept
        if read > kept:
            log.warning("%s: skipped %d disconnected graph(s)", self.path,
                        read - kept)

    def _read_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The order and pair bits of every block of the file's graphs, in
        file order."""
        header = graph6.HEADER.encode()
        lineno = 0
        with open(self.path, "rb") as fh:
            while lines := list(itertools.islice(fh, SOURCE_BLOCK)):
                block = graph6.decode_block(lines)
                if block is not None:
                    yield block
                else:
                    # one line at a time, as graph6.decode reads it,
                    # skipping blank lines and headers
                    graphs = []
                    for k, raw in enumerate(lines, start=lineno + 1):
                        line = raw.strip()
                        if line.startswith(header):
                            line = line[len(header):]
                        if not line:
                            continue
                        try:
                            graphs.append(graph6.decode(line))
                        except graph6.Graph6Error as exc:
                            raise Graph6FileError(
                                f"{self.path}:{k}: {exc}") from exc
                    yield from _blocks(graphs, SOURCE_BLOCK)
                lineno += len(lines)


def _blocks(graphs: Iterable[Graph], size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The order and pair bits of blocks of consecutive graphs of one
    order, at most size (>= 1) per block; each is yielded once full, or
    once the next graph has another order."""
    for _, run in itertools.groupby(graphs, lambda g: g.order):
        while block := list(itertools.islice(run, size)):
            yield _pair_bits(block)


# ---------------------------------------------------------------------------
# the census pipeline

@dataclass
class _Enumeration:
    """The built-in census of one order as a source, the counterpart of a
    Graph6Source: _enumerate's forms decoded SOURCE_BLOCK at a time and
    numbered from 1.  It rejects none, so it has no rejected_disconnected;
    run_census reads a missing count as 0."""

    order: int

    def _batches(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        m, forms = _enumerate(self.order)
        for start in range(0, len(forms), SOURCE_BLOCK):
            bits = _form_bits(m, forms[start:start + SOURCE_BLOCK])
            yield m, bits, start + 1 + np.arange(len(bits))


def _census_source(order: int | None, path: str | None
                   ) -> Graph6Source | _Enumeration:
    """The census of the graph6 file at path, else the built-in
    enumeration of order; the one choice between the two, for the CLI and
    the verify suites."""
    return _Enumeration(order) if path is None else Graph6Source(path)


class Histogram:
    """Value histogram; bin k covers [k*w, (k+1)*w) for w = HIST_BIN_WIDTH."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def update_many(self, values: np.ndarray) -> None:
        bins = np.floor(np.divide(values, HIST_BIN_WIDTH)).astype(np.int64)
        if not len(bins):
            return
        low = bins.min()
        cnt = np.bincount(bins - low)
        hit = np.flatnonzero(cnt)
        self.counts.update(dict(zip((hit + low).tolist(), cnt[hit].tolist())))

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

def _chunk_payload(m: int, bits: np.ndarray, zero_tol: float | None):
    """The order of a chunk and the IndexStats and Histogram of each index
    over its graphs; a degenerate spectrum raises, naming its graph."""
    witness = functools.cache(
        lambda i: graph6.encode(_to_graphs(m, bits[i:i + 1])[0]))
    per_index = indices_batch(eigen.spectra_batch(_adjacency(m, bits)), zero_tol,
                              lambda row: f"graph {witness(row)}")
    stats = {name: IndexStats() for name in INDEX_NAMES}
    hists = {name: Histogram() for name in INDEX_NAMES}
    for name in INDEX_NAMES:
        stats[name].update_many(per_index[name], witness)
        hists[name].update_many(per_index[name])
    return m, stats, hists


def _chunks(batches: Iterable[tuple], size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of consecutive (order, pair bits, ...) batches regrouped
    into chunks of exactly size rows each but the last, all of the order of
    the first nonempty batch.  A nonempty batch of another order raises
    MixedOrdersError as soon as it is read, after the chunk of the rows
    before it, whatever size is."""
    order, rows = 0, None
    for m, bits, *_ in batches:
        if not len(bits):
            continue
        if rows is None:
            order, rows = m, bits
        elif m == order:
            rows = np.concatenate([rows, bits])
        else:
            if len(rows):
                yield order, rows
            raise MixedOrdersError(f"census mixes orders {order} and {m}")
        while len(rows) >= size:
            yield order, rows[:size]
            rows = rows[size:]
    if rows is not None and len(rows):
        yield order, rows


def _ordered(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(item) for every item, yielded in item order as map yields them.

    threads == 1 is map itself.  Otherwise fn runs in a pool of that many
    threads, at most threads + 2 items ahead of the consumer, and every
    error surfaces where map raises it: an error of fn after the results
    of the items before it, an error of items itself after the results of
    every item it gave (so an error of fn on one of those wins).
    """
    if threads == 1:
        yield from map(fn, items)
        return
    items, error = iter(items), None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window: deque = deque()
        while True:
            try:
                item = next(items)
            except StopIteration:
                break
            except Exception as exc:
                error = exc
                break
            window.append(pool.submit(fn, item))
            if len(window) >= threads + 2:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    if error is not None:
        raise error


def run_census(source: Iterable[Graph], zero_tol: float | None = None,
               threads: int = 1, chunk_size: int = CHUNK_SIZE) -> CensusReport:
    """Stream a single-order graph source into a CensusReport.

    A Graph6Source, like the built-in census that the CLI reads, hands
    over its pair-bit batches; Graphs of other sources are converted
    block by block.  _census_report cuts the batches into chunks of
    chunk_size graphs, eigensolves them on threads threads and merges them
    in chunk order, so the report is identical for any thread count.
    """
    if min(threads, chunk_size) < 1:
        raise ValueError("threads and chunk_size must be at least 1")
    batches = (source._batches() if isinstance(source, (Graph6Source, _Enumeration))
               else _blocks(source, chunk_size))
    report = _census_report(batches, zero_tol, threads, chunk_size)
    report.rejected_disconnected = getattr(source, "rejected_disconnected", 0)
    return report


def _census_report(batches: Iterable[tuple], zero_tol: float | None = None,
                   threads: int = 1, chunk_size: int = CHUNK_SIZE) -> CensusReport:
    """The CensusReport of the (order, pair bits, ...) batches of a
    one-order census.  They are cut by _chunks, which raises
    MixedOrdersError at a second order before any of its graphs is solved;
    each chunk is eigensolved and summarised by _chunk_payload, on threads
    threads through _ordered, and the summaries are merged in chunk order."""
    stats = {name: IndexStats() for name in INDEX_NAMES}
    hists = {name: Histogram() for name in INDEX_NAMES}
    order = 0
    for order, st, hs in _ordered(lambda chunk: _chunk_payload(*chunk, zero_tol),
                                  _chunks(batches, chunk_size), threads):
        for name in INDEX_NAMES:
            stats[name].absorb(st[name])
            hists[name].absorb(hs[name])

    count = stats[INDEX_NAMES[0]].count
    if count == 0:
        raise EmptySourceError("census source yielded no graphs")
    return CensusReport(order=order, count=count, stats=stats,
                        histograms=hists)


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
             zero_tol: float | None = None, threads: int = 1) -> ExtremalResult:
    """Extreme value of one index over a source, with graph6 witnesses;
    the census runs on threads threads, as in run_census."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if index not in INDEX_NAMES:
        raise ValueError(f"unknown index {index!r}; expected one of {INDEX_NAMES}")
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    report = run_census(source, zero_tol, threads)
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

"""Exhaustive verification suites behind the ``verify`` CLI subcommand.

Each suite sweeps a family (all partitions of an order, a full census, a
range of perturbation sizes), applies the corresponding bound or closed-form
check, and reports how many cases were checked, how many were skipped as
out of premise, and the identifiers of any failures (graph6 strings where a
graph is the subject, otherwise a readable parameter tag).  The census
suites, every suite but prop1, prop3 and prop4, read one census of the
requested order; run_check turns a suite's tally into a named SuiteResult.

run_check is the one place that opens a census: it hands each census
suite the order-checked pair-bit batches (graphs.py) of
census._census_source, the one choice between a graph6 file and the
built-in enumeration, so neither becomes a Graph per census row.  The
bound suites (prop2a, bipartite-bound, vertex-add) are rows of _BOUNDS,
each its pair-bit bound columns with their failure tags: _sweep cuts the
batches into blocks of SWEEP_BLOCK graphs and runs each column once per
block, which gives masks of the graphs a bound applies to and holds for;
only a failing graph becomes a graph6 string.  The power maximum and the
classical extremes each come from one census._census_report of the
batches.  Either way the blocks run in census._ordered, the thread window
of the census, and are folded in census order, so a result is the same
for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import census, eigen, graph6, multipartite
from .graphs import (
    Graph,
    _to_graphs,
    complete_multipartite,
    detect_complete_multipartite,
    kmm_minus_e,
    kmm_plus_e,
    pair_count,
)
from .indices import compute_indices

_TOL = 1e-8
# census graphs per batched bound check.  Each block pays a fixed numpy
# cost per bound column, so fewer blocks are faster: on connected8.g6
# (2 vCPUs, one BLAS thread) prop2a, bipartite-bound and vertex-add spent
# 0.09-0.10 s outside LAPACK at 512 against 0.14-0.18 s at 128, with the
# same peak RSS.  Larger blocks gained little more, and their transient
# arrays (order-8 eigenvectors, order-9 stacks of vertex-add) are held
# once per block in flight: with the blocks on two threads, the four
# suites peaked at 35.7, 35.6 and 37.6 MB RSS at 256, 512 and 1024 (33.8
# MB at 512 on one thread).
SWEEP_BLOCK = 512


class NoCensusError(ValueError):
    """A graph6 file was given to a suite that reads no census."""


# what a suite function returns: cases checked, cases skipped as out of
# premise, and the failure tags
Tally = tuple[int, int, tuple[str, ...]]
# a census as run_check hands it to a suite: (order, pair bits) batches
Batches = Iterator[tuple[int, np.ndarray]]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    skipped: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """All ascending integer partitions of ``total`` into two or more parts."""

    def rec(remaining: int, smallest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            if len(prefix) >= 2:
                yield prefix
            return
        for part in range(smallest, remaining + 1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(total, 1, ())


def _census_batches(order: int, path: str | None) -> Batches:
    """The census a suite sweeps, as the order and pair bits of the
    batches of census._census_source: the connected graphs of each block
    of the graph6 file at ``path``, else the built-in enumeration of
    ``order``.  A file graph of another order raises MixedOrdersError."""
    for m, bits, reads in census._census_source(order, path)._batches():
        if len(bits) and m != order:
            raise census.MixedOrdersError(f"{path}: graph {reads[0]} has "
                                          f"order {m}, not the requested {order}")
        yield m, bits


def _sweep(batches: Batches, threads: int,
           bounds: tuple[tuple[str, Callable[[int, np.ndarray], tuple]], ...]
           ) -> Tally:
    """Every (tag prefix, bound column) pair of a _BOUNDS row on every
    census graph.

    The batches are cut into blocks of SWEEP_BLOCK graphs, and each bound
    runs once per block on its order and pair bits, the blocks on threads
    threads through census._ordered; their tallies are summed in block
    order.  A graph that some bound does not apply to is skipped; each
    bound that a checked graph fails adds the prefix plus its graph6
    string, in census order and, per graph, in the order of ``bounds``.
    """
    def tally(block: tuple[int, np.ndarray]) -> Tally:
        m, bits = block
        columns = [bound(m, bits) for _, bound in bounds]
        ok = np.logical_and.reduce([why == "" for why, _, _ in columns])
        rows, fail = np.nonzero(np.column_stack(
            [ok & ~holds for _, holds, _ in columns]))
        failures = tuple(bounds[k][0] + graph6.encode(g) for g, k in
                         zip(_to_graphs(m, bits[rows]), fail.tolist()))
        return int(ok.sum()), len(bits) - int(ok.sum()), failures

    failures: list[str] = []
    checked = skipped = 0
    blocks = census._chunks(batches, SWEEP_BLOCK)
    for block_checked, block_skipped, block_failures in census._ordered(
            tally, blocks, threads):
        checked += block_checked
        skipped += block_skipped
        failures += block_failures
    return checked, skipped, tuple(failures)


def check_multipartite_bounds(order: int) -> Tally:
    """Every partition of ``order``: analytic spectrum vs dense eigensolve,
    exactly one positive eigenvalue, spectrum range and index bounds."""
    failures = []
    checked = 0
    for checked, parts in enumerate(partitions(order), start=1):
        tag = "+".join(map(str, parts))
        try:
            report = multipartite.multipartite_bounds_check(parts)
            analytic = multipartite.multipartite_spectrum(parts).values()
            dense = eigen.spectrum(complete_multipartite(parts))
            if np.max(np.abs(analytic - dense)) > _TOL:
                failures.append(f"{tag}: analytic/dense spectra differ")
                continue
            positives = int(np.count_nonzero(analytic > eigen.default_zero_tol(order)))
            if positives != 1:
                failures.append(f"{tag}: {positives} positive eigenvalues")
                continue
            if not report.holds:
                failures.append(f"{tag}: bound violated")
        except RuntimeError as exc:  # a defect check or NonConvergenceError
            failures.append(f"{tag}: {exc}")
    return checked, 0, tuple(failures)


# the two order-7 maximizers of the power index and their exact spectra
_POW7_SPECTRA = (
    (6.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0),
    (5.0, 1.0, -1.0, -1.0, -1.0, -1.0, -2.0),
)


def check_power_maximum(order: int, batches: Batches, threads: int) -> Tally:
    """max power == 2*(order-1) for order <= 7, witnessed by the complete
    graph; at order 7 by exactly two graphs with known spectra."""
    if order > 7:
        raise ValueError("the power-maximum statement covers orders <= 7")
    failures = []
    report = census._census_report(batches, threads=threads)
    value, labels, overflow = report.stats["pow"].finalize().extreme("max")
    expected = 2.0 * (order - 1)
    if abs(value - expected) > _TOL:
        failures.append(f"max pow {value:.10f} != {expected}")
    witnesses = [graph6.decode(w) for w in labels]
    if not any(_is_complete(g) for g in witnesses):
        failures.append("complete graph missing from witnesses")
    if order == 7:
        if len(witnesses) != 2 or overflow:
            failures.append(f"expected 2 witnesses, got {len(witnesses)}")
        else:
            spectra = sorted(tuple(map(float, eigen.spectrum(g))) for g in witnesses)
            for got, want in zip(spectra, sorted(_POW7_SPECTRA)):
                if max(abs(a - b) for a, b in zip(got, want)) > _TOL:
                    tag = tuple(round(v, 6) for v in got)
                    failures.append(f"unexpected witness spectrum {tag}")
    elif len(witnesses) != 1:
        failures.append(f"expected a unique witness, got {len(witnesses)}")
    return report.count, 0, tuple(failures)


def check_minus_edge_family(max_part: int = 50) -> Tally:
    """Closed-form vs dense spectra for the one-edge-removed family."""
    return _edge_family(max_part, multipartite.kmm_minus_e_spectrum,
                        kmm_minus_e, minus_one=False)


def check_plus_edge_family(max_part: int = 50) -> Tally:
    """Closed-form vs dense spectra for the one-edge-added family, plus the
    exact -1 eigenvalue showing up as lambda_minus numerically."""
    return _edge_family(max_part, multipartite.kmm_plus_e_spectrum,
                        kmm_plus_e, minus_one=True)


def _edge_family(max_part: int, closed_form: Callable, build: Callable,
                 minus_one: bool) -> Tally:
    failures = []
    for m in range(2, max_part + 1):
        analytic = closed_form(m).values()
        dense = eigen.spectrum(build(m))
        if np.max(np.abs(analytic - dense)) > _TOL:
            failures.append(f"m={m}: spectra differ")
        elif minus_one and m >= 3:
            lam = compute_indices(dense).lambda_minus
            if abs(lam + 1.0) > 1e-9:
                failures.append(f"m={m}: lambda_minus {lam} != -1")
    return max(max_part - 1, 0), 0, tuple(failures)


# witnesses the classical extremes name

def _is_complete(g: Graph) -> bool:
    return g.bits == (1 << pair_count(g.order)) - 1


def _is_path(g: Graph) -> bool:  # census graphs are connected
    return sorted(g.degrees()) == [1, 1] + [2] * (g.order - 2)


def _is_star(g: Graph) -> bool:
    return sorted(g.degrees()) == [1] * (g.order - 1) + [g.order - 1]


def _is_balanced_complete_bipartite(g: Graph) -> bool:
    m = g.order
    return detect_complete_multipartite(g) == tuple(sorted((m // 2, m - m // 2)))


def check_classical(order: int, batches: Batches, threads: int) -> Tally:
    """The five textbook extremes, read off one batched census.

    Each check pins the extreme value and requires the unique witness the
    classical result names; a failure names the offending graph6 string
    when the witness is wrong or not unique.  ``checked`` counts the checks.
    """
    m = order
    stats = census._census_report(batches, threads=threads).stats
    specs = (
        ("max lambda_max", "lambda_max", "max", float(m - 1), _is_complete),
        ("min lambda_max", "lambda_max", "min",
         2.0 * math.cos(math.pi / (m + 1.0)), _is_path),
        ("min lambda_min", "lambda_min", "min",
         -math.sqrt((m // 2) * (m - m // 2)), _is_balanced_complete_bipartite),
        ("max lambda_min", "lambda_min", "max", -1.0, _is_complete),
        ("min pow", "pow", "min", 2.0 * math.sqrt(m - 1.0), _is_star),
    )
    failures = []
    for name, index, direction, expected, predicate in specs:
        actual, wits, over = stats[index].finalize().extreme(direction)
        unique = len(wits) == 1 and over == 0
        suspect = None if unique and predicate(graph6.decode(wits[0])) else wits[-1]
        if suspect is None and abs(actual - expected) <= _TOL:
            continue
        failures.append(f"{name}: expected {expected:.6f} got {actual:.6f}"
                        + (f" (witness {suspect})" if suspect else ""))
    return len(specs), 0, tuple(failures)


CHECK_NAMES = ("prop1", "prop2a", "prop2b", "prop3", "prop4",
               "bipartite-bound", "classical", "vertex-add")
# the suites that read no census take the order alone
_FAMILIES = {"prop1": check_multipartite_bounds,
             "prop3": check_minus_edge_family, "prop4": check_plus_edge_family}
# bound suite -> its (failure tag prefix, pair-bit bound column) pairs:
# prop2a the gap/ind bounds off the complete multipartite graphs,
# bipartite-bound the gap bound off the complete bipartite ones, and
# vertex-add the cone and pendant eigenvalue bounds on every graph
_BOUNDS = {
    "prop2a": (("", multipartite._nonmultipartite_columns),),
    "bipartite-bound": (("", multipartite._bipartite_columns),),
    "vertex-add": (("cone:", multipartite._cone_columns),
                   ("pendant:", multipartite._pendant_columns)),
}
# the report suites read one census._census_report of the batches
_REPORTS = {"prop2b": check_power_maximum, "classical": check_classical}


def run_check(name: str, order: int, path: str | None = None,
              threads: int = 1) -> SuiteResult:
    """Run a named suite; ``order`` is the census order, or the largest part
    size for the perturbation families.

    prop1, prop3 and prop4 read no census: they ignore ``threads``, and a
    path given to one of them raises NoCensusError.  For every other suite
    this is the one place a census is opened: the graph6 file at ``path``
    when one is given, else the built-in enumeration, as the lazy batches
    of _census_batches, so a suite's own argument checks come before any
    file is read or graph enumerated.  A bound suite sweeps them with its
    _BOUNDS row, a report suite gets them whole, and either runs its
    blocks on ``threads`` threads with the same result for any count."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    if name in _FAMILIES:
        if path is not None:
            raise NoCensusError(f"check {name} reads no census; "
                                "it takes no graph6 file")
        return SuiteResult(name, *_FAMILIES[name](order))
    batches = _census_batches(order, path)
    if name in _BOUNDS:
        return SuiteResult(name, *_sweep(batches, threads, _BOUNDS[name]))
    return SuiteResult(name, *_REPORTS[name](order, batches, threads))

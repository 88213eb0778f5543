"""Exhaustive verification suites behind the ``verify`` CLI subcommand.

Each suite sweeps a family (all partitions of an order, a full census, a
range of perturbation sizes), applies the corresponding bound or closed-form
check, and reports how many cases were checked, how many were skipped as
out of premise, and the identifiers of any failures (graph6 strings where a
graph is the subject, otherwise a readable parameter tag).  The census
suites, the classical extremes among them, read one census of the requested
order; run_check turns a suite's tally into a named SuiteResult.

The census bound suites (prop2a, bipartite-bound, vertex-add) cut their
census into blocks of SWEEP_BLOCK graphs with census._blocks and run the
batch form of each bound once per block, with its premises decided on the
block's neighbor masks and one batched eigensolve per kind of matrix.  The
power maximum and the classical extremes each come from one run_census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import census, eigen, graph6, multipartite
from .graphs import (
    Graph,
    complete_multipartite,
    detect_complete_multipartite,
    is_connected,
    kmm_minus_e,
    kmm_plus_e,
    pair_count,
)
from .indices import compute_indices

_TOL = 1e-8
# census graphs per batched bound check; at 256 the transient arrays of a
# vertex-add block (order-8 eigenvectors, order-9 stacks) pass glibc's heap
# trim threshold, so each block gave its pages back and faulted them in again
SWEEP_BLOCK = 128


class NoCensusError(ValueError):
    """A graph6 file was given to a suite that reads no census."""


# what a suite function returns: cases checked, cases skipped as out of
# premise, and the failure tags
Tally = tuple[int, int, tuple[str, ...]]


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


def _census_graphs(order: int, path: str | None) -> Iterator[Graph]:
    """The census a suite sweeps: the graphs of the graph6 file at ``path``,
    else the built-in enumeration of ``order``.  A file graph of another
    order raises MixedOrdersError."""
    if path is None:
        yield from census.enumerate_connected(order)
        return
    source = census.Graph6Source(path)
    for g in source:
        if g.order != order:
            raise census.MixedOrdersError(
                f"{path}: graph {source.read} has order {g.order}, "
                f"not the requested {order}"
            )
        yield g


def _sweep(order: int, path: str | None,
           *bounds: tuple[str, Callable[[Sequence[Graph]], list]]) -> Tally:
    """Every (tag prefix, batched bound check) pair on every census graph.

    The census is read in blocks of SWEEP_BLOCK graphs, and each check runs
    once per block.  For each graph it gives a report with ``holds``, or
    the NotApplicableError of a graph outside its premise, which skips the
    graph.  Each report that does not hold adds the prefix plus the graph6
    string, in census order and, per graph, in the order of ``bounds``.
    """
    failures: list[str] = []
    checked = skipped = 0
    for block in census._blocks(_census_graphs(order, path), SWEEP_BLOCK):
        outcomes = zip(*(bound(block) for _, bound in bounds))
        for g, reports in zip(block, outcomes):
            if any(isinstance(r, multipartite.NotApplicableError)
                   for r in reports):
                skipped += 1
                continue
            checked += 1
            failures.extend(tag + graph6.encode(g)
                            for (tag, _), r in zip(bounds, reports)
                            if not r.holds)
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
        except Exception as exc:  # noqa: BLE001 - suite reports, not raises
            failures.append(f"{tag}: {exc}")
    return checked, 0, tuple(failures)


def check_nonmultipartite_bounds(order: int, path: str | None = None) -> Tally:
    """Census sweep of the gap/ind bounds for non complete multipartite graphs."""
    return _sweep(order, path, ("", multipartite.nonmultipartite_bounds_batch))


# the two order-7 maximizers of the power index and their exact spectra
_POW7_SPECTRA = (
    (6.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0),
    (5.0, 1.0, -1.0, -1.0, -1.0, -1.0, -2.0),
)


def check_power_maximum(order: int, path: str | None = None) -> Tally:
    """max power == 2*(order-1) for order <= 7, witnessed by the complete
    graph; at order 7 by exactly two graphs with known spectra."""
    if order > 7:
        raise ValueError("the power-maximum statement covers orders <= 7")
    failures = []
    result = census.extremal(_census_graphs(order, path), "pow", "max")
    expected = 2.0 * (order - 1)
    if abs(result.value - expected) > _TOL:
        failures.append(f"max pow {result.value:.10f} != {expected}")
    witnesses = [graph6.decode(w) for w in result.witnesses]
    if not any(_is_complete(g) for g in witnesses):
        failures.append("complete graph missing from witnesses")
    if order == 7:
        if len(witnesses) != 2 or result.overflow:
            failures.append(f"expected 2 witnesses, got {len(witnesses)}")
        else:
            spectra = sorted(
                tuple(round(v, 6) for v in eigen.spectrum(g)) for g in witnesses
            )
            for got, want in zip(spectra, sorted(_POW7_SPECTRA)):
                if max(abs(a - b) for a, b in zip(got, want)) > _TOL:
                    failures.append(f"unexpected witness spectrum {got}")
    elif len(witnesses) != 1:
        failures.append(f"expected a unique witness, got {len(witnesses)}")
    return result.count, 0, tuple(failures)


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


def check_bipartite_bound(order: int, path: str | None = None) -> Tally:
    """Census sweep of the gap bound for bipartite, non complete bipartite graphs."""
    return _sweep(order, path, ("", multipartite.bipartite_gap_bound_batch))


# witnesses the classical extremes name

def _is_complete(g: Graph) -> bool:
    return g.bits == (1 << pair_count(g.order)) - 1


def _is_path(g: Graph) -> bool:
    if g.order == 1:
        return True
    return (is_connected(g)
            and sorted(g.degrees()) == [1, 1] + [2] * (g.order - 2))


def _is_star(g: Graph) -> bool:
    return sorted(g.degrees()) == [1] * (g.order - 1) + [g.order - 1]


def _is_balanced_complete_bipartite(g: Graph) -> bool:
    m = g.order
    return detect_complete_multipartite(g) == tuple(sorted((m // 2, m - m // 2)))


def check_classical(order: int, path: str | None = None) -> Tally:
    """The five textbook extremes, read off one batched census.

    Each check pins the extreme value and requires the unique witness the
    classical result names; a failure names the offending graph6 string
    when the witness is wrong or not unique.  ``checked`` counts the checks.
    """
    m = order
    stats = census.run_census(_census_graphs(m, path)).stats
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


def check_vertex_addition(order: int, path: str | None = None) -> Tally:
    """Cone and pendant eigenvalue bounds on every census graph."""
    return _sweep(order, path,
                  ("cone:", multipartite.cone_lambda_max_bound_batch),
                  ("pendant:", multipartite.pendant_lambda_min_bound_batch))


# suite name -> (suite function, whether it sweeps a census)
_SUITES = {
    "prop1": (check_multipartite_bounds, False),
    "prop2a": (check_nonmultipartite_bounds, True),
    "prop2b": (check_power_maximum, True),
    "prop3": (check_minus_edge_family, False),
    "prop4": (check_plus_edge_family, False),
    "bipartite-bound": (check_bipartite_bound, True),
    "classical": (check_classical, True),
    "vertex-add": (check_vertex_addition, True),
}
CHECK_NAMES = tuple(_SUITES)


def run_check(name: str, order: int, path: str | None = None) -> SuiteResult:
    """Run a named suite; ``order`` is the census order, or the largest part
    size for the perturbation families.  Census suites read the graph6 file
    at ``path`` when one is given, else the built-in enumeration; a path
    given to any other suite raises NoCensusError."""
    if name not in _SUITES:
        raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    suite, sweeps_census = _SUITES[name]
    if path is not None and not sweeps_census:
        raise NoCensusError(f"check {name} reads no census; it takes no graph6 file")
    tally = suite(order, path) if sweeps_census else suite(order)
    return SuiteResult(name, *tally)

"""Closed-form spectra of complete multipartite graphs and related results.

A connected graph has exactly one positive adjacency eigenvalue iff it is
complete multipartite (Smith's characterization).  For part sizes
m_1 <= ... <= m_k the nonzero eigenvalues that are not negated part sizes
solve the dispersion equation

    sum_i  m_i / (lambda + m_i)  =  1,

whose left-hand side is strictly decreasing between consecutive poles, so
each root is isolated in a clean bracket.  This module assembles those
spectra exactly (root-finding to 1e-12), cross-checks them against a dense
eigensolve of an equivalent k x k matrix, and implements the bound,
perturbation, density and vertex-addition results built on top of them.

The census bound checks (the gap/ind bounds for graphs that are not
complete multipartite, the bipartite gap bound, and the cone and pendant
vertex additions) each come in a batch form over a list of same-order
graphs.  A batch decides its premise for every graph at once, on neighbor
masks; the spectra come from one batched eigensolve and the indices from
one index_table; the cone and pendant matrices are its adjacency stack
grown by one row and column.  For each graph it returns the report or the
NotApplicableError that the graph raises.  The one-graph function of the
same name is its one-graph case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import eigen
from .graphs import (Graph, _adjacency_stack, bipartite_batch,
                     complete_multipartite_batch)
from .graphs import detect_complete_multipartite  # noqa: F401 - re-exported
from .indices import SpectralIndices, compute_indices, index_rows, index_table

# constants of the connected-graph count approximation (anchored at order 9)
APPROX_ANCHOR_COUNT = 261080.0
APPROX_LOG_SLOPE = 1.4
APPROX_LOG_CURVATURE = 0.09

_ROOT_WIDTH = 1e-12
_CROSS_CHECK_TOL = 1e-9
_SLACK = 1e-9


class PoleInputError(ValueError):
    """dispersion_sum evaluated exactly at a pole -m_i."""


class InvalidPartitionError(ValueError):
    """Part sizes must be positive integers with at least two parts."""


class InvalidOrderError(ValueError):
    """A perturbation family was asked for an unsupported part size."""


class NotApplicableError(ValueError):
    """The requested check's premise does not hold for this graph."""


class SearchBudgetExceededError(RuntimeError):
    """density_search exhausted its scan budget."""


class DegenerateEigenvectorError(RuntimeError):
    """An eigenvector needed for vertex placement vanished identically."""


# ---------------------------------------------------------------------------
# analytic spectra

@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with multiplicity and how it was obtained.

    provenance is one of ``fixed_part_value`` (negated repeated part size),
    ``dispersion_root`` (bracketed root of the dispersion equation),
    ``closed_form`` (explicit algebraic expression), ``zero_block``.
    """

    value: float
    multiplicity: int
    provenance: str

    _TAGS = ("fixed_part_value", "dispersion_root", "closed_form", "zero_block")

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.provenance not in self._TAGS:
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class AnalyticSpectrum:
    """A full spectrum given as distinct values with multiplicities."""

    order: int
    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self) -> None:
        if sum(e.multiplicity for e in self.entries) != self.order:
            raise ValueError("multiplicities must sum to the graph order")

    def values(self) -> np.ndarray:
        """Expanded spectrum, descending."""
        vals = np.repeat(
            [e.value for e in self.entries],
            [e.multiplicity for e in self.entries],
        )
        return np.sort(vals)[::-1]

    def indices(self) -> SpectralIndices:
        return compute_indices(self.values())


def _normalize_parts(parts: Sequence[int]) -> tuple[int, ...]:
    out = []
    for p in parts:
        if int(p) != p or p < 1:
            raise InvalidPartitionError("part sizes must be positive integers")
        out.append(int(p))
    if len(out) < 2:
        raise InvalidPartitionError("need at least two parts")
    return tuple(sorted(out))


def dispersion_sum(lam: float, parts: Sequence[int]) -> float:
    """Left-hand side sum m_i/(lam + m_i) of the dispersion equation."""
    total = 0.0
    for p in parts:
        den = lam + p
        if den == 0.0:
            raise PoleInputError(f"lambda = {lam} is a pole (part size {p})")
        total += p / den
    return total


def _dispersion_root(parts: tuple[int, ...], lo: float, hi: float) -> float:
    """Root of dispersion_sum == 1 in (lo, hi).

    The sum decreases through the bracket, from above 1 (or a pole at lo)
    to below 1 (or a pole at hi); endpoints are approached from inside.
    """

    def f(lam: float) -> float:
        return dispersion_sum(lam, parts) - 1.0

    span = hi - lo
    eps = span / 16.0
    a = lo + eps
    while f(a) <= 0.0:
        eps /= 2.0
        a = lo + eps
    eps = span / 16.0
    b = hi - eps
    while f(b) >= 0.0:
        eps /= 2.0
        b = hi - eps
    while b - a > _ROOT_WIDTH:
        mid = 0.5 * (a + b)
        if f(mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def multipartite_spectrum(parts: Sequence[int]) -> AnalyticSpectrum:
    """Exact spectrum of the complete multipartite graph with these parts.

    Construction: a part size repeated c times contributes -size with
    multiplicity c-1; one dispersion root lies strictly between consecutive
    distinct -sizes; a single positive dispersion root closes the list
    (equal to m - m/k exactly when all parts are equal); zeros fill the
    remaining m - k slots.  The nonzero values are cross-checked against a
    dense eigensolve of the equivalent k x k part matrix to 1e-9.
    """
    p = _normalize_parts(parts)
    m, k = sum(p), len(p)

    runs: list[tuple[int, int]] = []
    for size in p:
        if runs and runs[-1][0] == size:
            runs[-1] = (size, runs[-1][1] + 1)
        else:
            runs.append((size, 1))

    entries: list[SpectrumEntry] = []
    for size, cnt in runs:
        if cnt >= 2:
            entries.append(SpectrumEntry(-float(size), cnt - 1, "fixed_part_value"))
    for (s1, _), (s2, _) in zip(runs, runs[1:]):
        root = _dispersion_root(p, -float(s2), -float(s1))
        entries.append(SpectrumEntry(root, 1, "dispersion_root"))
    if len(runs) == 1:
        top = float(p[0] * (k - 1))  # m - m/k, exact for equal parts
    else:
        top = _dispersion_root(p, 0.0, m - m / k)
    entries.append(SpectrumEntry(top, 1, "dispersion_root"))
    if m > k:
        entries.append(SpectrumEntry(0.0, m - k, "zero_block"))
    entries.sort(key=lambda e: -e.value)
    result = AnalyticSpectrum(order=m, entries=tuple(entries))

    nonzero = [e for e in result.entries if e.provenance != "zero_block"]
    analytic = np.sort(np.repeat([e.value for e in nonzero],
                                 [e.multiplicity for e in nonzero]))
    dense = np.sort(eigen.eigvals_symmetric(reduced_part_matrix(p)))
    if np.max(np.abs(analytic - dense)) > _CROSS_CHECK_TOL:
        raise RuntimeError(
            "internal defect: dispersion roots disagree with the dense "
            f"eigensolve for parts {p}"
        )
    return result


def reduced_part_matrix(parts: Sequence[int]) -> np.ndarray:
    """Symmetric k x k matrix with sqrt(m_i m_j) off-diagonal, zero diagonal.

    Similar to the part-count matrix whose spectrum is exactly the nonzero
    part of the full multipartite spectrum, but symmetric so the dense
    solver applies.
    """
    p = np.asarray(_normalize_parts(parts), dtype=float)
    root = np.sqrt(p)
    mat = np.outer(root, root)
    np.fill_diagonal(mat, 0.0)
    return mat


# ---------------------------------------------------------------------------
# cubic machinery for the 3-part and perturbation closed forms

def _real_cubic_roots(b: float, c: float, d: float) -> tuple[float, float, float]:
    """Three real roots of x^3 + b x^2 + c x + d, descending.

    Trigonometric solution of the depressed form t^3 + p t + q, valid
    because every cubic solved here has three real roots and p < 0 (both
    callers: p = -(m1 m2 + m1 m3 + m2 m3) and p = -m^2 - 1/3), then
    Newton-polished on the original coefficients for full double precision
    at large magnitudes.
    """
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    amp = 2.0 * math.sqrt(-p / 3.0)
    cos3 = (3.0 * q) / (2.0 * p) * math.sqrt(-3.0 / p)
    cos3 = min(1.0, max(-1.0, cos3))
    theta = math.acos(cos3) / 3.0
    roots = [amp * math.cos(theta - 2.0 * math.pi * j / 3.0) for j in range(3)]
    polished = []
    for t in roots:
        x = t - b / 3.0
        for _ in range(3):
            fx = ((x + b) * x + c) * x + d
            dfx = (3.0 * x + 2.0 * b) * x + c
            if dfx == 0.0:
                break
            x -= fx / dfx
        polished.append(x)
    polished.sort(reverse=True)
    return polished[0], polished[1], polished[2]


def tripartite_roots(m1: int, m2: int, m3: int) -> tuple[float, float, float]:
    """The three nonzero eigenvalues of K_{m1,m2,m3}, descending.

    They solve the depressed cubic
    x^3 - (m1 m2 + m1 m3 + m2 m3) x - 2 m1 m2 m3 = 0.
    """
    if min(m1, m2, m3) < 1:
        raise InvalidPartitionError("part sizes must be positive integers")
    e2 = float(m1 * m2 + m1 * m3 + m2 * m3)
    e3 = float(m1 * m2 * m3)
    return _real_cubic_roots(0.0, -e2, -2.0 * e3)


# ---------------------------------------------------------------------------
# one-edge perturbations of the balanced complete bipartite graph

def kmm_minus_e_spectrum(m: int) -> AnalyticSpectrum:
    """Spectrum of the balanced complete bipartite graph minus one edge.

    2m-4 zeros plus the four closed-form values +-((m-1 +- sqrt(D))/2) with
    D = m^2 + 2m - 3.  The gap 1 - m + sqrt(D) is confirmed to sit strictly
    inside (2 sqrt(1 - 2/(m+1)), 2 sqrt(1 - 1/m)); both ends tend to 2.
    """
    if int(m) != m or m < 2:
        raise InvalidOrderError("part size must be an integer >= 2")
    m = int(m)
    sq = math.sqrt(m * m + 2.0 * m - 3.0)
    lam_max = (m - 1 + sq) / 2.0
    # conjugate form of (1 - m + sqrt(D))/2: subtracting nearly equal
    # magnitudes loses ~sqrt's ulp, which at large m exceeds the 1/m^2
    # width of the sandwich below
    lam_plus = 2.0 * (m - 1.0) / (sq + m - 1.0)
    entries = [
        SpectrumEntry(lam_max, 1, "closed_form"),
        SpectrumEntry(lam_plus, 1, "closed_form"),
    ]
    if m > 2:
        entries.append(SpectrumEntry(0.0, 2 * m - 4, "zero_block"))
    entries += [
        SpectrumEntry(-lam_plus, 1, "closed_form"),
        SpectrumEntry(-lam_max, 1, "closed_form"),
    ]
    gap = 2.0 * lam_plus
    lo = 2.0 * math.sqrt(1.0 - 2.0 / (m + 1.0))
    hi = 2.0 * math.sqrt(1.0 - 1.0 / m)
    # the sandwich is ~1/m^2 wide; beyond 10^7 doubles cannot resolve it
    if m <= 10 ** 7 and not lo < gap < hi:
        raise RuntimeError(
            f"internal defect: gap {gap} escapes ({lo}, {hi}) at m={m}"
        )
    return AnalyticSpectrum(order=2 * m, entries=tuple(entries))


def kmm_plus_e_spectrum(m: int) -> AnalyticSpectrum:
    """Spectrum of the balanced complete bipartite graph plus one edge.

    2m-4 zeros, the exact eigenvalue -1, and the three real roots of
    x^3 - x^2 - m^2 x + m(m-2) = 0, which for m >= 3 interlace as
    r3 < -1 < 0 < r2 < r1; r2 agrees with 1 - 2/m - 2/m^3 to within
    10/m^4 (asserted for 4 <= m <= 10^4, beyond which the envelope
    drops below double precision).  At m = 2 the middle root is 0.
    """
    if int(m) != m or m < 2:
        raise InvalidOrderError("part size must be an integer >= 2")
    m = int(m)
    r1, r2, r3 = _real_cubic_roots(-1.0, -float(m) * m, float(m) * (m - 2))
    if m >= 3:
        # refine the near-1 root with the polynomial regrouped as
        # x^2 (x - 1) + m^2 (1 - x) - 2m: the two O(m^2) terms then cancel
        # exactly (1 - x is exact near 1), unlike plain Horner whose
        # noise floor is ulp(m^2 x)
        mm = float(m) * m
        for _ in range(4):
            fv = r2 * r2 * (r2 - 1.0) + mm * (1.0 - r2) - 2.0 * m
            dv = (3.0 * r2 - 2.0) * r2 - mm
            r2 -= fv / dv
    if m >= 3 and not (r3 < -1.0 < 0.0 < r2 < r1):
        raise RuntimeError(f"internal defect: cubic roots out of order at m={m}")
    if 4 <= m <= 10 ** 4:
        expansion = 1.0 - 2.0 / m - 2.0 / m ** 3
        if abs(r2 - expansion) > 10.0 / m ** 4:
            raise RuntimeError(
                f"internal defect: r2 strays from its expansion at m={m}"
            )
    entries = [
        SpectrumEntry(r1, 1, "closed_form"),
        SpectrumEntry(r2, 1, "closed_form"),
    ]
    if m > 2:
        entries.append(SpectrumEntry(0.0, 2 * m - 4, "zero_block"))
    entries += [
        SpectrumEntry(-1.0, 1, "closed_form"),
        SpectrumEntry(r3, 1, "closed_form"),
    ]
    entries.sort(key=lambda e: -e.value)
    return AnalyticSpectrum(order=2 * m, entries=tuple(entries))


# ---------------------------------------------------------------------------
# batches of census graphs

def _one(outcomes: list) -> Any:
    """The report of a one-graph batch; its NotApplicableError is raised."""
    (outcome,) = outcomes
    if isinstance(outcome, NotApplicableError):
        raise outcome
    return outcome


def _premised(graphs: Sequence[Graph],
              premise: Callable[[Sequence[Graph]], list],
              reports: Callable[[Sequence[Graph], np.ndarray], list]) -> list:
    """Each graph's outcome: the NotApplicableError of its premise (None
    where it holds), else its report from reports, which gets the graphs
    that meet it and their spectra from one batched eigensolve, none when
    no graph does."""
    if not graphs:
        return []
    outcomes = premise(graphs)
    todo = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if todo:
        chosen = [graphs[i] for i in todo]
        vals = eigen.spectra_batch(_adjacency_stack(chosen))
        for i, outcome in zip(todo, reports(chosen, vals)):
            outcomes[i] = outcome
    return outcomes


# ---------------------------------------------------------------------------
# bound reports

@dataclass(frozen=True)
class MultipartiteBoundsReport:
    """Bound checks for a complete multipartite graph's spectrum."""

    parts: tuple[int, ...]
    order: int
    idx: SpectralIndices
    spectrum_in_range: bool     # all eigenvalues inside [-max part, m - m/k]
    lambda_plus_ok: bool        # 0 < lambda_+ <= m - m/k
    lambda_minus_ok: bool       # -m/k <= lambda_- < 0
    gap_ok: bool                # gap <= m
    ind_ok: bool                # ind <= m - 1
    pow_ok: bool                # power <= 2 (m - m/k)

    @property
    def holds(self) -> bool:
        return (self.spectrum_in_range and self.lambda_plus_ok
                and self.lambda_minus_ok and self.gap_ok and self.ind_ok
                and self.pow_ok)


def multipartite_bounds_check(parts: Sequence[int]) -> MultipartiteBoundsReport:
    p = _normalize_parts(parts)
    m, k = sum(p), len(p)
    spec = multipartite_spectrum(p)
    vals = spec.values()
    idx = compute_indices(vals)
    top = m - m / k
    return MultipartiteBoundsReport(
        parts=p,
        order=m,
        idx=idx,
        spectrum_in_range=bool(
            vals.min() >= -p[-1] - _SLACK and vals.max() <= top + _SLACK
        ),
        lambda_plus_ok=0.0 < idx.lambda_plus <= top + _SLACK,
        lambda_minus_ok=-m / k - _SLACK <= idx.lambda_minus < 0.0,
        gap_ok=idx.gap <= m + _SLACK,
        ind_ok=idx.ind <= m - 1 + _SLACK,
        pow_ok=idx.power <= 2.0 * top + _SLACK,
    )


@dataclass(frozen=True)
class NonMultipartiteBoundsReport:
    """Bound checks for a connected graph that is NOT complete multipartite."""

    order: int
    idx: SpectralIndices
    lambda2: float
    gap_bound: float            # m-1 (even order) or m-3/2 (odd)
    ind_bound: float            # m/2 (even) or sqrt(m^2-1)/2 (odd)
    lambda2_bound: float        # floor(m/2) - 1
    premise_ok: bool            # 0 < lambda_+ <= lambda2 <= lambda2_bound
    gap_ok: bool
    ind_ok: bool

    @property
    def holds(self) -> bool:
        return self.premise_ok and self.gap_ok and self.ind_ok


def nonmultipartite_bounds_check(g: Graph) -> NonMultipartiteBoundsReport:
    return _one(nonmultipartite_bounds_batch([g]))


def nonmultipartite_bounds_batch(graphs: Sequence[Graph]
                                 ) -> list[NonMultipartiteBoundsReport
                                           | NotApplicableError]:
    """nonmultipartite_bounds_check on each of same-order graphs."""
    return _premised(graphs, _nonmultipartite_premise, _nonmultipartite_reports)


def _nonmultipartite_premise(graphs: Sequence[Graph]) -> list:
    return [NotApplicableError("graph is complete multipartite") if multi
            else None for multi in complete_multipartite_batch(graphs).tolist()]


def _nonmultipartite_reports(graphs: Sequence[Graph], vals: np.ndarray
                             ) -> list[NonMultipartiteBoundsReport]:
    m = graphs[0].order
    if m % 2 == 0:
        gap_bound, ind_bound = m - 1.0, m / 2.0
    else:
        gap_bound, ind_bound = m - 1.5, math.sqrt(m * m - 1.0) / 2.0
    lambda2_bound = m // 2 - 1.0
    indices = index_rows(index_table(vals))
    return [
        NonMultipartiteBoundsReport(
            order=m,
            idx=idx,
            lambda2=lambda2,
            gap_bound=gap_bound,
            ind_bound=ind_bound,
            lambda2_bound=lambda2_bound,
            premise_ok=(0.0 < idx.lambda_plus <= lambda2 + _SLACK
                        and lambda2 <= lambda2_bound + _SLACK),
            gap_ok=idx.gap <= gap_bound + _SLACK,
            ind_ok=idx.ind <= ind_bound + _SLACK,
        )
        for idx, lambda2 in zip(indices, vals[:, 1].tolist())
    ]


@dataclass(frozen=True)
class BipartiteBoundReport:
    """Gap bound for a bipartite graph that is not complete bipartite."""

    order: int
    avg_degree: float
    nullity: int
    gap: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.gap <= self.bound + _SLACK


def bipartite_gap_bound(g: Graph) -> BipartiteBoundReport:
    """2 sqrt(d (m - 2d) / (m - k - 2)) check; d avg degree, k the nullity."""
    return _one(bipartite_gap_bound_batch([g]))


def bipartite_gap_bound_batch(graphs: Sequence[Graph]
                              ) -> list[BipartiteBoundReport
                                        | NotApplicableError]:
    """bipartite_gap_bound on each of same-order graphs."""

    def reports(graphs: Sequence[Graph], vals: np.ndarray
                ) -> list[BipartiteBoundReport | NotApplicableError]:
        m = graphs[0].order
        table = index_table(vals)
        indices = iter(index_rows(table, m - table["nullity"] - 2 > 0))
        out: list[BipartiteBoundReport | NotApplicableError] = []
        for g, k in zip(graphs, table["nullity"].tolist()):
            if m - k - 2 <= 0:
                out.append(NotApplicableError(
                    "zero multiplicity too large for the bound"))
                continue
            d = 2.0 * g.edge_count / m
            gap = next(indices).gap
            bound = 2.0 * math.sqrt(d * (m - 2.0 * d) / (m - k - 2.0))
            out.append(BipartiteBoundReport(
                order=m, avg_degree=d, nullity=k, gap=gap, bound=bound
            ))
        return out

    return _premised(graphs, _bipartite_premise, reports)


def _bipartite_premise(graphs: Sequence[Graph]) -> list:
    # a connected bipartite graph with sides of a and m - a vertices is
    # complete bipartite when it has a (m - a) > 0 edges
    m = graphs[0].order
    bipartite, even = bipartite_batch(graphs)
    return [NotApplicableError("graph is not bipartite") if not bip
            else NotApplicableError("graph is complete bipartite")
            if 0 < g.edge_count == side.bit_count() * (m - side.bit_count())
            else None
            for g, bip, side in zip(graphs, bipartite.tolist(), even.tolist())]


# ---------------------------------------------------------------------------
# gap density over complete bipartite graphs

@dataclass(frozen=True)
class DensityWitness:
    """A complete bipartite graph whose gap lands in [m - gamma, m - delta]."""

    m1: int
    m2: int
    order: int
    gap: float


_DENSITY_SCAN_CAP = 10_000_000


def density_search(delta: float, gamma: float) -> DensityWitness:
    """Smallest m2 with sqrt(delta) <= frac(sqrt(m2)) <= sqrt(gamma).

    With m1 the largest square below m2, the complete bipartite graph on
    (m1, m2) has gap 2 sqrt(m1 m2) inside [m - gamma, m - delta]; fractional
    parts of square roots are dense in [0, 1), so the scan terminates.
    """
    if not 0.0 <= delta < gamma < 1.0:
        raise ValueError("need 0 <= delta < gamma < 1")
    lo, hi = math.sqrt(delta), math.sqrt(gamma)
    for m2 in range(1, _DENSITY_SCAN_CAP + 1):
        s = math.isqrt(m2)
        frac = math.sqrt(m2) - s
        if s >= 1 and lo <= frac <= hi:
            m1 = s * s
            m = m1 + m2
            gap = 2.0 * math.sqrt(m1 * m2)
            if m - gamma - _SLACK <= gap <= m - delta + _SLACK:
                return DensityWitness(m1=m1, m2=m2, order=m, gap=gap)
    raise SearchBudgetExceededError(
        f"no witness with m2 <= {_DENSITY_SCAN_CAP} for ({delta}, {gamma})"
    )


# ---------------------------------------------------------------------------
# single-vertex additions

@dataclass(frozen=True)
class ConeReport:
    """lambda_max growth achieved by joining a new vertex to all vertices."""

    base_value: float
    new_value: float
    bound: float                # guaranteed lower bound for new_value

    @property
    def holds(self) -> bool:
        return self.new_value >= self.bound - _SLACK


@dataclass(frozen=True)
class PendantReport:
    """lambda_min drop achieved by one pendant vertex, placed greedily."""

    base_value: float
    new_value: float
    bound: float                # guaranteed upper bound for new_value
    attach_vertex: int

    @property
    def holds(self) -> bool:
        return self.new_value <= self.bound + _SLACK


def cone_lambda_max_bound(g: Graph) -> ConeReport:
    """Join a new vertex to every vertex; lambda_max grows to at least
    (lambda_max + sqrt(lambda_max^2 + 4)) / 2."""
    return cone_lambda_max_bound_batch([g])[0]


def cone_lambda_max_bound_batch(graphs: Sequence[Graph]) -> list[ConeReport]:
    """cone_lambda_max_bound on each of same-order graphs: one batched
    eigensolve for the graphs, one for their cones."""
    if not graphs:
        return []
    m = graphs[0].order
    mats = _adjacency_stack(graphs)
    cones = np.zeros((len(graphs), m + 1, m + 1))
    cones[:, :m, :m] = mats
    cones[:, m, :m] = cones[:, :m, m] = 1.0
    lams = eigen.spectra_batch(mats)[:, 0].tolist()
    new_lams = eigen.spectra_batch(cones)[:, 0].tolist()
    return [
        ConeReport(
            base_value=lam,
            new_value=new_lam,
            bound=(lam + math.sqrt(lam * lam + 4.0)) / 2.0,
        )
        for lam, new_lam in zip(lams, new_lams)
    ]


def pendant_lambda_min_bound(g: Graph) -> PendantReport:
    """Attach a pendant at the heaviest coordinate of the lambda_min
    eigenvector; lambda_min drops to at most
    (lambda_min - sqrt(lambda_min^2 + 4/m)) / 2."""
    return pendant_lambda_min_bound_batch([g])[0]


def pendant_lambda_min_bound_batch(graphs: Sequence[Graph]
                                   ) -> list[PendantReport]:
    """pendant_lambda_min_bound on each of same-order graphs: one batched
    eigensystem for the graphs, one eigensolve for their pendants."""
    if not graphs:
        return []
    m = graphs[0].order
    mats = _adjacency_stack(graphs)
    vals, vecs = eigen.eigensystems_batch(mats)
    weights = np.abs(vecs[:, :, -1])
    if not weights.max(axis=1).all():
        raise DegenerateEigenvectorError("lambda_min eigenvector is zero")
    # argmax takes the lowest index on ties
    attach = np.argmax(weights, axis=1)
    pendants = np.zeros((len(graphs), m + 1, m + 1))
    pendants[:, :m, :m] = mats
    rows = np.arange(len(graphs))
    pendants[rows, attach, m] = pendants[rows, m, attach] = 1.0
    new_lams = eigen.spectra_batch(pendants)[:, -1].tolist()
    return [
        PendantReport(
            base_value=lam,
            new_value=new_lam,
            bound=(lam - math.sqrt(lam * lam + 4.0 / m)) / 2.0,
            attach_vertex=i0,
        )
        for lam, new_lam, i0
        in zip(vals[:, -1].tolist(), new_lams, attach.tolist())
    ]


# ---------------------------------------------------------------------------
# connected-graph count approximation

def approx_connected_count(m: int) -> float:
    """Quadratic-exponential approximation of the number of connected graphs.

    Anchored to be exact at order 9; useful for 2 <= m <= 10.
    """
    if int(m) != m or m < 2:
        raise InvalidOrderError("order must be an integer >= 2")
    t = m - 9
    try:
        count = APPROX_ANCHOR_COUNT * 10.0 ** (
            APPROX_LOG_SLOPE * t + APPROX_LOG_CURVATURE * t * t
        )
        if math.isfinite(count):
            return count
    except OverflowError:
        pass
    raise InvalidOrderError(f"order {m} is too large: the count exceeds a float")

"""Closed-form spectra of complete multipartite graphs and related results.

A connected graph has exactly one positive adjacency eigenvalue iff it is
complete multipartite (Smith's characterization).  For part sizes
m_1 <= ... <= m_k the nonzero eigenvalues that are not negated part sizes
solve the dispersion equation

    sum_i  m_i / (lambda + m_i)  =  1,

whose left-hand side is strictly decreasing between consecutive poles, so
each root is isolated in a clean bracket.  This module assembles those
spectra exactly (root-finding to 1e-12, or to adjacent doubles where they
are wider apart), cross-checks them against a dense eigensolve of an
equivalent k x k matrix, and implements the bound,
perturbation, density and vertex-addition results built on top of them.

The census bound checks (the gap/ind bounds for graphs that are not
complete multipartite, the bipartite gap bound, and the cone and pendant
vertex additions) each run on the order and pair bits of a batch of
graphs (graphs.py): premises on neighbor masks, spectra from one batched
eigensolve, cone and pendant matrices scattered from the pair bits grown
by the new vertex's pairs.  Each gives columns: per graph whether it
applies and holds, and report fields.  The exported function of the same
name is its one-graph case: the graph's report, or its NotApplicableError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Sequence

import numpy as np

from . import eigen, graph6
from .graphs import (Graph, _adjacency, _bfs, _multipartite_rows, _neighbors,
                     _pair_bits, _to_graphs, _unpack)
from .graphs import detect_complete_multipartite  # noqa: F401 - re-exported
from .indices import SpectralIndices, index_rows, index_table, indices_batch

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
        return np.sort(np.repeat([e.value for e in self.entries],
                                 [e.multiplicity for e in self.entries]))[::-1]

    def indices(self) -> SpectralIndices:
        """The indices from the distinct values and multiplicities, at
        any order.  Zero tolerance _CROSS_CHECK_TOL: nonzero closed forms
        have |value| >= 0.32 and zeros are exact, while the default,
        1e-9 x order, would swallow the values near +-1 from order 10^9."""
        vals, mult = np.array([(e.value, e.multiplicity) for e in self.entries]).T
        table = index_table(np.sort(vals)[None, ::-1], _CROSS_CHECK_TOL)
        return index_rows({**table, "pow": np.abs(vals) @ mult[:, None]})[0]


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
    Each loop also stops once its next step would not move a double (the
    endpoint or the current value): a root within rounding of an endpoint
    ends next to it, and bisection ends at adjacent doubles, which are
    wider apart than _ROOT_WIDTH from |lambda| = 8192 on.
    """

    def f(lam: float) -> float:
        return dispersion_sum(lam, parts) - 1.0

    span = hi - lo
    eps = span / 16.0
    a = lo + eps
    while f(a) <= 0.0 and lo + eps / 2.0 not in (lo, a):
        eps /= 2.0
        a = lo + eps
    eps = span / 16.0
    b = hi - eps
    while f(b) >= 0.0 and hi - eps / 2.0 not in (hi, b):
        eps /= 2.0
        b = hi - eps
    while b - a > _ROOT_WIDTH and (mid := 0.5 * (a + b)) not in (a, b):
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
    dense eigensolve of the equivalent k x k part matrix to 1e-9 times the
    spectral radius (at least 1): rounding grows with the eigenvalues.
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
    if np.max(np.abs(analytic - dense)) > _CROSS_CHECK_TOL * max(1.0, dense[-1]):
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
# census bounds on pair-bit batches
#
# Each census bound has one function on a batch's order and pair bits.
# Per graph, it gives why the bound does not apply (its NotApplicableError
# message, "" where it applies) and whether it holds (False where it does
# not apply); then the report fields of the graphs it applies to, in batch
# order: arrays, constants, or an index_table for the SpectralIndices.
# Every report's holds uses operators only, so _columns runs it on arrays.


def _spectra(m: int, bits: np.ndarray) -> np.ndarray:
    """Descending spectra of a batch; no eigensolve for no graphs."""
    if not len(bits):
        return np.zeros((0, m))
    return eigen.spectra_batch(_adjacency(m, bits))


def _columns(why: np.ndarray, report: type, **fields: Any) -> tuple:
    """A bound's columns from why it does not apply and its report fields."""
    holds = np.zeros(len(why), bool)
    holds[why == ""] = report.holds.fget(SimpleNamespace(**fields))
    return why, holds, fields


def _report(g: Graph, columns: Callable[..., tuple], report: type) -> Any:
    """A census bound on one graph: its report, with plain Python fields,
    or the NotApplicableError of the premise the graph is off."""
    [why], _, fields = columns(*_pair_bits([g]))
    if why:
        raise NotApplicableError(why)
    return report(**{name: index_rows(v)[0] if isinstance(v, dict)
                     else v.tolist()[0] if isinstance(v, np.ndarray) else v
                     for name, v in fields.items()})


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
    idx = multipartite_spectrum(p).indices()
    top = m - m / k
    return MultipartiteBoundsReport(
        parts=p,
        order=m,
        idx=idx,
        spectrum_in_range=(idx.lambda_min >= -p[-1] - _SLACK
                           and idx.lambda_max <= top + _SLACK),
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
        # & rather than and, so that the rule also reads arrays (_columns)
        return self.premise_ok & self.gap_ok & self.ind_ok


def nonmultipartite_bounds_check(g: Graph) -> NonMultipartiteBoundsReport:
    return _report(g, _nonmultipartite_columns, NonMultipartiteBoundsReport)


def _nonmultipartite_columns(m: int, bits: np.ndarray) -> tuple:
    nb = _neighbors(m, bits)
    why = np.full(len(bits), "", object)
    why[_multipartite_rows(nb)] = "graph is complete multipartite"
    why[_bfs(nb)[0] != (1 << m) - 1] = "graph is not connected"
    applies = bits[why == ""]
    vals = _spectra(m, applies)
    table = indices_batch(vals, name=lambda row: "graph " + graph6.encode(
        _to_graphs(m, applies[row:row + 1])[0]))
    if m % 2 == 0:
        gap_bound, ind_bound = m - 1.0, m / 2.0
    else:
        gap_bound, ind_bound = m - 1.5, math.sqrt(m * m - 1.0) / 2.0
    lambda2_bound = m // 2 - 1.0
    lambda_plus, lambda2 = table["lambda_plus"], vals[:, 1]
    return _columns(
        why, NonMultipartiteBoundsReport, order=m, idx=table, lambda2=lambda2,
        gap_bound=gap_bound, ind_bound=ind_bound, lambda2_bound=lambda2_bound,
        premise_ok=((0.0 < lambda_plus) & (lambda_plus <= lambda2 + _SLACK)
                    & (lambda2 <= lambda2_bound + _SLACK)),
        gap_ok=table["gap"] <= gap_bound + _SLACK,
        ind_ok=table["ind"] <= ind_bound + _SLACK,
    )


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
    return _report(g, _bipartite_columns, BipartiteBoundReport)


def _bipartite_columns(m: int, bits: np.ndarray) -> tuple:
    # a connected bipartite graph with sides of a and m - a vertices is
    # complete bipartite when it has a (m - a) > 0 edges
    reached, even, clash = _bfs(_neighbors(m, bits))
    edges = bits.sum(axis=1)
    side = _unpack(even, m).sum(0, dtype=np.int64)
    why = np.full(len(bits), "", object)
    why[(0 < edges) & (edges == side * (m - side))] = "graph is complete bipartite"
    why[clash] = "graph is not bipartite"
    why[reached != (1 << m) - 1] = "graph is not connected"
    rows = np.flatnonzero(why == "")
    table = index_table(_spectra(m, bits[rows]))
    fits = m - table["nullity"] - 2 > 0
    why[rows[~fits]] = "zero multiplicity too large for the bound"
    k, d = table["nullity"][fits], 2.0 * edges[rows[fits]] / m
    return _columns(
        why, BipartiteBoundReport, order=m, avg_degree=d, nullity=k,
        gap=table["gap"][fits],
        bound=2.0 * np.sqrt(d * (m - 2.0 * d) / (m - k - 2.0)),
    )


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
    return _report(g, _cone_columns, ConeReport)


def _cone_columns(m: int, bits: np.ndarray) -> tuple:
    # the new vertex m is joined to all; its pairs (i, m) come last
    cones = np.hstack([bits, np.ones((len(bits), m), np.uint8)])
    lam = eigen.spectra_batch(_adjacency(m, bits))[:, 0]
    return _columns(
        np.full(len(bits), "", object), ConeReport, base_value=lam,
        new_value=eigen.spectra_batch(_adjacency(m + 1, cones))[:, 0],
        bound=(lam + np.sqrt(lam * lam + 4.0)) / 2.0,
    )


def pendant_lambda_min_bound(g: Graph) -> PendantReport:
    """Attach a pendant at the heaviest coordinate of the lambda_min
    eigenvector; lambda_min drops to at most
    (lambda_min - sqrt(lambda_min^2 + 4/m)) / 2."""
    return _report(g, _pendant_columns, PendantReport)


def _pendant_columns(m: int, bits: np.ndarray) -> tuple:
    vals, vecs = eigen.eigensystems_batch(_adjacency(m, bits))
    weights = np.abs(vecs[:, :, -1])
    if not weights.max(axis=1).all():
        raise DegenerateEigenvectorError("lambda_min eigenvector is zero")
    # argmax takes the lowest index on ties
    attach = np.argmax(weights, axis=1)
    # the pendant's one edge is the pair (attach, m), after the graph's pairs
    pendants = np.hstack([bits, np.eye(m, dtype=np.uint8)[attach]])
    lam = vals[:, -1]
    return _columns(
        np.full(len(bits), "", object), PendantReport, base_value=lam,
        new_value=eigen.spectra_batch(_adjacency(m + 1, pendants))[:, -1],
        bound=(lam - np.sqrt(lam * lam + 4.0 / m)) / 2.0,
        attach_vertex=attach,
    )


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

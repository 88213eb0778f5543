"""Spectral indices of a single spectrum, and streaming statistics over many.

Index definitions, for a descending spectrum of a connected graph on m >= 2
vertices with zero tolerance ``tol``:

* ``lambda_plus``  : smallest eigenvalue >  tol
* ``lambda_minus`` : largest  eigenvalue < -tol
* ``gap``          : lambda_plus - lambda_minus
* ``ind``          : max(|lambda_plus|, |lambda_minus|)
* ``power``        : sum of |eigenvalue| over the whole spectrum

Statistics conventions (chosen to match the published reference table and
validated against it by hand at m = 3 and m = 4): the standard deviation
uses the n-1 divisor, while skewness and kurtosis are the population
moment ratios M3/n / (M2/n)^1.5 and M4/n / (M2/n)^2 -- kurtosis is plain,
not excess, so a symmetric two-point sample has skewness 0 and kurtosis 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .eigen import zero_tolerance

WITNESS_BAND = 1e-9
WITNESS_CAP = 16

# public names of the tracked indices, in reporting order, and the names of
# all SpectralIndices fields, in field order
INDEX_NAMES = ("lambda_max", "lambda_min", "gap", "ind", "pow")
_FIELDS = ("lambda_max", "lambda_min", "lambda_plus", "lambda_minus", "gap",
           "ind", "pow")


class DegenerateSpectrumError(ValueError):
    """Spectrum has no positive or no negative eigenvalue beyond tolerance."""


class InsufficientDataError(ValueError):
    """A statistic was requested that the stream cannot support yet."""


@dataclass(frozen=True)
class SpectralIndices:
    lambda_max: float
    lambda_min: float
    lambda_plus: float
    lambda_minus: float
    gap: float
    ind: float
    power: float

    def by_name(self, name: str) -> float:
        if name not in _FIELDS:
            raise KeyError(name)
        return getattr(self, "power" if name == "pow" else name)


def compute_indices(values: Sequence[float] | np.ndarray,
                    zero_tol: float | None = None) -> SpectralIndices:
    """Spectral indices of one spectrum (any order; sorted internally)."""
    arr = np.sort(np.asarray(values, dtype=float))[::-1]
    if arr.size == 0:
        raise DegenerateSpectrumError("empty spectrum")
    return index_rows(index_table(arr[None], zero_tol))[0]


def index_table(vals_desc: np.ndarray, zero_tol: float | None = None
                ) -> dict[str, np.ndarray]:
    """Every index of each row of a (n, m) array of descending spectra: a
    column per SpectralIndices field (power as ``pow``), ``nullity``, and
    ``degenerate`` for a row without eigenvalues of both signs beyond
    tolerance, whose sign-dependent columns mean nothing."""
    vals = np.asarray(vals_desc, dtype=float)
    n, m = vals.shape
    tol = zero_tolerance(m, zero_tol)
    pos_counts = (vals > tol).sum(axis=1)
    neg_counts = (vals < -tol).sum(axis=1)
    rows = np.arange(n)
    lam_plus = vals[rows, pos_counts - 1]
    lam_minus = vals[rows, (m - neg_counts) % m]
    return {
        "lambda_max": vals[:, 0].copy(),
        "lambda_min": vals[:, -1].copy(),
        "lambda_plus": lam_plus,
        "lambda_minus": lam_minus,
        "gap": lam_plus - lam_minus,
        "ind": np.maximum(lam_plus, -lam_minus),
        "pow": np.abs(vals).sum(axis=1),
        "nullity": m - pos_counts - neg_counts,
        "degenerate": (pos_counts == 0) | (neg_counts == 0),
    }


def index_rows(table: dict[str, np.ndarray], rows: np.ndarray | None = None
               ) -> list[SpectralIndices]:
    """The rows of an index_table (those ``rows`` selects, else all), as
    compute_indices gives them; a degenerate row raises."""
    if rows is not None:
        table = {name: column[rows] for name, column in table.items()}
    if table["degenerate"].any():
        raise DegenerateSpectrumError(
            "spectrum has no eigenvalues of both signs beyond tolerance"
        )
    return [SpectralIndices(*row)
            for row in zip(*(table[name].tolist() for name in _FIELDS))]


def indices_batch(vals_desc: np.ndarray, zero_tol: float | None = None
                  ) -> dict[str, np.ndarray]:
    """index_table of a census chunk, which must hold no degenerate row."""
    table = index_table(vals_desc, zero_tol)
    bad = np.flatnonzero(table["degenerate"])
    if bad.size:
        raise DegenerateSpectrumError(
            f"row {bad[0]}: spectrum lacks eigenvalues of both signs"
        )
    return table


# ---------------------------------------------------------------------------
# streaming moments with extremum witnesses

class _Extremum:
    """One tracked extremum: best value plus witnesses within WITNESS_BAND.

    ``sign`` is +1 when minimizing, -1 when maximizing; internally the best
    key sign*value is minimized either way.  The retained witnesses are the
    lexicographically smallest (key, label) pairs among all offers that
    still qualify, so the result does not depend on arrival order.  The
    keys of qualifying labeled offers that the cap discarded are kept in
    ``dropped``, so a later, lower best can drop the ones it leaves behind.
    """

    __slots__ = ("sign", "best", "entries", "dropped")

    def __init__(self, sign: int) -> None:
        self.sign = sign
        self.best: float | None = None
        self.entries: list[tuple[float, str]] = []
        self.dropped: list[float] = []

    @property
    def value(self) -> float | None:
        return None if self.best is None else self.sign * self.best

    @property
    def overflow(self) -> int:
        """Qualifying labeled offers that the cap discarded."""
        return len(self.dropped)

    def _rebase(self, key: float) -> None:
        if self.best is not None and key >= self.best:
            return
        self.best = key
        cut = key + WITNESS_BAND
        self.entries = [e for e in self.entries if e[0] <= cut]
        self.dropped = [k for k in self.dropped if k <= cut]

    def _insert(self, key: float, label: str) -> None:
        if key > self.best + WITNESS_BAND:
            return
        entry = (key, label)
        if len(self.entries) < WITNESS_CAP:
            bisect.insort(self.entries, entry)
        elif entry < self.entries[-1]:
            bisect.insort(self.entries, entry)
            self.dropped.append(self.entries.pop()[0])
        else:
            self.dropped.append(key)

    def offer(self, value: float, label: str | None) -> None:
        key = self.sign * value
        self._rebase(key)
        if label is not None:
            self._insert(key, label)

    def absorb(self, other: "_Extremum") -> None:
        self._rebase(other.best)
        for key, label in other.entries:
            self._insert(key, label)
        cut = self.best + WITNESS_BAND
        self.dropped.extend(k for k in other.dropped if k <= cut)

    def witnesses(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.entries)


@dataclass(frozen=True)
class StatsSummary:
    """Finalized view of one IndexStats stream; None marks unavailable."""

    count: int
    mean: float | None
    std: float | None
    skewness: float | None
    kurtosis: float | None
    minimum: float | None
    maximum: float | None
    min_witnesses: tuple[str, ...]
    max_witnesses: tuple[str, ...]
    min_overflow: int
    max_overflow: int

    def extreme(self, direction: str
                ) -> tuple[float | None, tuple[str, ...], int]:
        """Value, witnesses and overflow of the "min" or "max" extreme."""
        if direction == "min":
            return self.minimum, self.min_witnesses, self.min_overflow
        return self.maximum, self.max_witnesses, self.max_overflow


class IndexStats:
    """One-pass moment accumulator with mergeable state.

    Tracks count, mean and 2nd..4th central moment sums, plus min/max with
    witness labels.  Two accumulators over disjoint streams merge into the
    same state (to rounding) as a single pass over the concatenation.
    """

    __slots__ = ("count", "mean", "m2", "m3", "m4", "_min", "_max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0
        self._min = _Extremum(+1)
        self._max = _Extremum(-1)

    # -- accumulation ------------------------------------------------------

    def _combine(self, nb: int, mean_b: float, m2b: float, m3b: float,
                 m4b: float) -> None:
        na = self.count
        n = na + nb
        delta = mean_b - self.mean
        self.m4 += (
            m4b
            + delta ** 4 * na * nb * (na * na - na * nb + nb * nb) / n ** 3
            + 6.0 * delta ** 2 * (na * na * m2b + nb * nb * self.m2) / n ** 2
            + 4.0 * delta * (na * m3b - nb * self.m3) / n
        )
        self.m3 += (
            m3b
            + delta ** 3 * na * nb * (na - nb) / n ** 2
            + 3.0 * delta * (na * m2b - nb * self.m2) / n
        )
        self.m2 += m2b + delta ** 2 * na * nb / n
        self.mean += delta * nb / n
        self.count = n

    def update(self, value: float, witness: str | None = None) -> None:
        """Add one observation, optionally labeled (e.g. a graph6 string)."""
        self.update_many(np.array([value], dtype=float),
                         None if witness is None else lambda _: witness)

    def update_many(self, values: np.ndarray,
                    witness_for: Callable[[int], str] | None = None) -> None:
        """Add a chunk of observations at once.

        ``witness_for`` maps a chunk-local position to its label and is only
        invoked for positions near the chunk extremes.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        mean_b = float(values.mean())
        d = values - mean_b
        d2 = d * d
        self._combine(values.size, mean_b, float(d2.sum()),
                      float((d2 * d).sum()), float((d2 * d2).sum()))
        vmin = float(values.min())
        vmax = float(values.max())
        if witness_for is None:
            self._min.offer(vmin, None)
            self._max.offer(vmax, None)
            return
        for i in np.nonzero(values <= vmin + WITNESS_BAND)[0]:
            self._min.offer(float(values[i]), witness_for(int(i)))
        for i in np.nonzero(values >= vmax - WITNESS_BAND)[0]:
            self._max.offer(float(values[i]), witness_for(int(i)))

    def absorb(self, other: "IndexStats") -> None:
        """Merge another accumulator into this one (other stays intact)."""
        if other.count == 0:
            return
        self._combine(other.count, other.mean, other.m2, other.m3, other.m4)
        self._min.absorb(other._min)
        self._max.absorb(other._max)

    # -- accessors ----------------------------------------------------------

    @property
    def minimum(self) -> float | None:
        return self._min.value

    @property
    def maximum(self) -> float | None:
        return self._max.value

    def std(self) -> float:
        if self.count == 0:
            raise InsufficientDataError("no observations")
        if self.count == 1:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / (self.count - 1))

    def skewness(self) -> float:
        self._need_spread()
        n = self.count
        return (self.m3 / n) / (self.m2 / n) ** 1.5

    def kurtosis(self) -> float:
        self._need_spread()
        n = self.count
        return (self.m4 / n) / (self.m2 / n) ** 2

    def _need_spread(self) -> None:
        if self.count < 2:
            raise InsufficientDataError("need at least two observations")
        # values within the tie band are one value; m2 is rounding noise
        if self.maximum - self.minimum <= WITNESS_BAND:
            raise InsufficientDataError("zero variance stream")

    def finalize(self) -> StatsSummary:
        def _try(fn: Callable[[], float]) -> float | None:
            try:
                return fn()
            except InsufficientDataError:
                return None

        return StatsSummary(
            count=self.count,
            mean=self.mean if self.count else None,
            std=_try(self.std),
            skewness=_try(self.skewness),
            kurtosis=_try(self.kurtosis),
            minimum=self.minimum,
            maximum=self.maximum,
            min_witnesses=self._min.witnesses(),
            max_witnesses=self._max.witnesses(),
            min_overflow=self._min.overflow,
            max_overflow=self._max.overflow,
        )

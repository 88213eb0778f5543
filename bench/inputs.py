"""Seeded inputs and the independent oracles the output checks compare against.

Nothing here imports specgap: the graph6 codec, the connectivity filter, the
spectral indices and the moments are re-derived with plain numpy, so a check
never runs through the layer it is checking.

Graphs are edge masks over the strict upper triangle, numbered column-major
((0,1), (0,2), (1,2), (0,3), ...), which is also graph6's payload bit order.
"""

from __future__ import annotations

import itertools
import math
import os
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

CENSUS9_ORDER = 9
CENSUS9_COUNT = 261080  # connected graphs kept, as in the order-9 acceptance test
CENSUS9_BATCH = 65536
INDEX_NAMES = ("lambda_max", "lambda_min", "gap", "ind", "pow")
MOMENT_TOL = 1e-6
WITNESS_BAND = 1e-9


def pair_count(order: int) -> int:
    return order * (order - 1) // 2


def _pairs(order: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, order) for i in range(j)]


# ---------------------------------------------------------------------------
# graph6 codec over fixed-width lines (orders up to 62)

def encode_g6(order: int, masks: np.ndarray) -> bytes:
    """graph6 lines, each ending in a newline, for an array of edge masks."""
    n_bits = pair_count(order)
    n_bytes = (n_bits + 5) // 6
    masks = np.asarray(masks, dtype=np.uint64)
    bits = (masks[:, None] >> np.arange(n_bits, dtype=np.uint64)) & np.uint64(1)
    padded = np.zeros((masks.size, 6 * n_bytes), dtype=np.uint8)
    padded[:, :n_bits] = bits
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    payload = (padded.reshape(masks.size, n_bytes, 6) * weights).sum(axis=2) + 63
    out = np.empty((masks.size, n_bytes + 2), dtype=np.uint8)
    out[:, 0] = order + 63
    out[:, 1:-1] = payload
    out[:, -1] = ord("\n")
    return out.tobytes()


def decode_g6(line: bytes | str) -> tuple[int, int]:
    """(order, edge mask) of one graph6 line of order <= 62."""
    data = line.encode() if isinstance(line, str) else line
    data = data.strip()
    if not data or not 1 <= data[0] - 63 <= 62 or not all(63 <= b <= 126 for b in data):
        raise ValueError(f"unsupported graph6 line {data!r}")
    order = data[0] - 63
    mask = 0
    for k, byte in enumerate(data[1:]):
        value = byte - 63
        for s in range(6):
            if value & (32 >> s):
                mask |= 1 << (6 * k + s)
    return order, mask


# ---------------------------------------------------------------------------
# connectivity and spectra

def connected(order: int, masks: np.ndarray) -> np.ndarray:
    """Boolean array: which masks are connected graphs (vertex-mask BFS)."""
    masks = np.asarray(masks, dtype=np.uint64)
    nb = np.zeros((order, masks.size), dtype=np.uint64)
    for p, (i, j) in enumerate(_pairs(order)):
        bit = (masks >> np.uint64(p)) & np.uint64(1)
        nb[i] |= bit << np.uint64(j)
        nb[j] |= bit << np.uint64(i)
    reached = np.ones(masks.size, dtype=np.uint64)
    for _ in range(order - 1):
        step = reached.copy()
        for v in range(order):
            hit = ((reached >> np.uint64(v)) & np.uint64(1)).astype(bool)
            step[hit] |= nb[v][hit]
        reached = step
    return reached == np.uint64((1 << order) - 1)


def adjacency(order: int, masks: np.ndarray) -> np.ndarray:
    masks = np.asarray(masks, dtype=np.uint64)
    mats = np.zeros((masks.size, order, order))
    for p, (i, j) in enumerate(_pairs(order)):
        bit = ((masks >> np.uint64(p)) & np.uint64(1)).astype(float)
        mats[:, i, j] = bit
        mats[:, j, i] = bit
    return mats


def index_values(order: int, masks: np.ndarray, chunk: int = 16384) -> np.ndarray:
    """(n, 5) array of the indices in INDEX_NAMES order, one row per mask.

    lambda_plus is the smallest eigenvalue above the zero tolerance 1e-9*m,
    lambda_minus the largest below its negative.
    """
    tol = 1e-9 * order
    out = np.empty((len(masks), len(INDEX_NAMES)))
    for start in range(0, len(masks), chunk):
        vals = np.linalg.eigvalsh(adjacency(order, masks[start:start + chunk]))
        lam_plus = np.where(vals > tol, vals, np.inf).min(axis=1)
        lam_minus = np.where(vals < -tol, vals, -np.inf).max(axis=1)
        out[start:start + chunk] = np.column_stack([
            vals.max(axis=1),
            vals.min(axis=1),
            lam_plus - lam_minus,
            np.maximum(lam_plus, -lam_minus),
            np.abs(vals).sum(axis=1),
        ])
    return out


def two_pass_moments(x: np.ndarray) -> dict[str, float]:
    """The stats.csv columns: n-1 std, population skewness, plain kurtosis."""
    n = x.size
    mean = math.fsum(x) / n
    d = x - mean
    m2 = math.fsum(d * d)
    m3 = math.fsum(d ** 3)
    m4 = math.fsum(d ** 4)
    return {
        "count": n,
        "mean": mean,
        "std": math.sqrt(m2 / (n - 1)),
        "skewness": (m3 / n) / (m2 / n) ** 1.5,
        "kurtosis": (m4 / n) / (m2 / n) ** 2,
        "min": float(x.min()),
        "max": float(x.max()),
    }


# ---------------------------------------------------------------------------
# census-file-9: the order-9 acceptance stream, disconnected lines kept

def census9_stream(seed: int, count: int = CENSUS9_COUNT
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(masks, is_connected) in stream order, cut at the count-th connected one.

    Draws exactly what the acceptance test's generator draws (65536 random
    36-bit masks per batch from default_rng(seed)); that generator drops the
    disconnected masks, this stream keeps them.
    """
    rng = np.random.default_rng(seed)
    masks, flags = [], []
    kept = 0
    while kept < count:
        batch = rng.integers(0, 1 << 36, size=CENSUS9_BATCH, dtype=np.uint64)
        conn = connected(CENSUS9_ORDER, batch)
        total = np.cumsum(conn)
        if total[-1] >= count - kept:
            cut = int(np.searchsorted(total, count - kept)) + 1
            batch, conn = batch[:cut], conn[:cut]
        masks.append(batch)
        flags.append(conn)
        kept += int(conn.sum())
    return np.concatenate(masks), np.concatenate(flags)


def _write_atomic(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write through a temporary file, so an interrupted run leaves no
    half-written cache entry behind."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)


def census9_input(cache: Path, seed: int, count: int = CENSUS9_COUNT) -> dict:
    """Write (once per seed) the graph6 file and the oracle table for it."""
    g6 = cache / f"census9-{seed}-{count}.g6"
    table = cache / f"census9-{seed}-{count}.npz"
    if not (g6.exists() and table.exists()):
        masks, conn = census9_stream(seed, count)
        _write_atomic(g6, lambda fh: fh.write(encode_g6(CENSUS9_ORDER, masks)))
        good = np.sort(masks[conn])
        values = index_values(CENSUS9_ORDER, good)
        _write_atomic(table, lambda fh: np.savez(
            fh, masks=good, values=values, lines=np.int64(masks.size)))
    with np.load(table) as z:
        lines = int(z["lines"])
    return {
        "path": str(g6),
        "table": str(table),
        "lines": lines,
        "connected": count,
        "disconnected": lines - count,
        "bytes": g6.stat().st_size,
    }


def check_census_stats(rows: list[dict[str, str]], table: str | Path
                       ) -> tuple[int, list[str]]:
    """Compare stats.csv rows with the oracle: (checks made, failures).

    Moments must agree within MOMENT_TOL; every listed witness must be a
    stream graph whose oracle value lies within the witness band of the
    reported extreme.
    """
    with np.load(table) as z:
        masks, values = z["masks"], z["values"]
    attempted = 0
    problems = []
    by_name = {row.get("index"): row for row in rows}
    for col, name in enumerate(INDEX_NAMES):
        row = by_name.get(name, {})
        want = two_pass_moments(values[:, col])
        for key, expected in want.items():
            attempted += 1
            got = row.get(key, "")
            try:
                ok = abs(float(got) - expected) <= MOMENT_TOL
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"stats.csv {name}.{key}: {got!r} != {expected:.9f}")
        for key, extreme in (("argmin_g6", want["min"]), ("argmax_g6", want["max"])):
            witnesses = [w for w in row.get(key, "").split(";") if w]
            attempted += 1
            if not witnesses:
                problems.append(f"stats.csv {name}.{key}: no witness")
            for w in witnesses:
                attempted += 1
                try:
                    mask = decode_g6(w)[1]
                except ValueError:
                    problems.append(f"stats.csv {name}.{key}: {w!r} is not graph6")
                    continue
                at = int(np.searchsorted(masks, np.uint64(mask)))
                if at == masks.size or int(masks[at]) != mask:
                    problems.append(f"stats.csv {name}.{key}: {w} not in stream")
                elif abs(values[at, col] - extreme) > WITNESS_BAND + MOMENT_TOL:
                    problems.append(f"stats.csv {name}.{key}: {w} is not extreme")
    return attempted, problems


# ---------------------------------------------------------------------------
# canon-7-8: which order-7 classes to extend, and which order-8 classes result

def canon_sample(seed: int, size: int, population: int = 853) -> list[int]:
    """Sorted positions into the order-7 census (ascending edge masks)."""
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(population, size=size, replace=False))


def canonical(order: int, masks: np.ndarray, batch: int = 512) -> np.ndarray:
    """Least mask over all order! relabelings, per mask (order <= 7)."""
    perms = np.array(list(itertools.permutations(range(order))))
    pairs = np.array(_pairs(order))
    a, b = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    image = (hi * (hi - 1) // 2 + lo).astype(np.uint64)  # (perms, pairs)
    # image of each 7-pair slice value under each permutation
    tables = []
    for c in range(0, pair_count(order), 7):
        width = min(7, pair_count(order) - c)
        bits = (np.arange(128)[:, None] >> np.arange(width)) & 1
        shifted = bits[None].astype(np.uint64) << image[:, None, c:c + width]
        tables.append(shifted.sum(axis=2, dtype=np.uint64))
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.empty_like(masks)
    for start in range(0, masks.size, batch):
        part = masks[start:start + batch]
        acc = np.zeros((perms.shape[0], part.size), dtype=np.uint64)
        for k, table in enumerate(tables):
            acc |= table[:, ((part >> np.uint64(7 * k)) & np.uint64(127)).astype(np.intp)]
        out[start:start + batch] = acc.min(axis=0)
    return out


def deleted_subgraphs(order: int, masks: np.ndarray) -> np.ndarray:
    """(n, order) masks of each graph with vertex v removed (order-1 labels)."""
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.zeros((masks.size, order), dtype=np.uint64)
    old = {pair: p for p, pair in enumerate(_pairs(order))}
    for v in range(order):
        keep = [u for u in range(order) if u != v]
        for q, (i, j) in enumerate(_pairs(order - 1)):
            bit = (masks >> np.uint64(old[keep[i], keep[j]])) & np.uint64(1)
            out[:, v] |= bit << np.uint64(q)
    return out


def order8_deletion_classes(cache: Path, census8: Path) -> tuple[list[bytes], np.ndarray]:
    """Lines of the order-8 census and, per line, the canonical order-7
    class of each vertex-deleted subgraph (computed once, then cached)."""
    lines = census8.read_bytes().split()
    table = cache / "census8-deletions.npy"
    if not table.exists():
        masks = np.array([decode_g6(line)[1] for line in lines], dtype=np.uint64)
        dels = deleted_subgraphs(8, masks)
        classes = canonical(7, dels.ravel()).reshape(dels.shape)
        _write_atomic(table, lambda fh: np.save(fh, classes))
    return lines, np.load(table)


def expected_extensions(lines: list[bytes], deletions: np.ndarray,
                        order7: list[int]) -> set[bytes]:
    """Order-8 classes that extend one of the order-7 graphs: exactly the
    lines with a vertex whose deletion leaves one of them."""
    wanted = canonical(7, np.asarray(order7, dtype=np.uint64))
    hit = np.isin(deletions, wanted).any(axis=1)
    return {line for line, h in zip(lines, hit) if h}

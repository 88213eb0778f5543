"""Spectral gap, index and power analysis of simple connected graphs.

The package computes adjacency spectra and three derived spectral indices,
provides closed-form spectra for complete multipartite graphs and for
balanced complete bipartite graphs with one edge removed or added, checks
the associated eigenvalue bounds, and runs exhaustive small-order censuses
with streaming statistics.

The imports below are the package's public names.
"""

from .graphs import (
    Graph,
    InvalidParamsError,
    bipartition,
    complete,
    complete_multipartite,
    cycle,
    detect_complete_multipartite,
    from_edges,
    is_connected,
    kmm_minus_e,
    kmm_plus_e,
    pair_count,
    pair_index,
    path,
    relabel,
    star,
)
from .graph6 import (
    Graph6Error,
    InvalidCharError,
    NonzeroPaddingError,
    TruncatedPayloadError,
    decode,
    encode,
)
from .eigen import (
    NonConvergenceError,
    default_zero_tol,
    eigensystem,
    eigensystems_batch,
    eigvals_symmetric,
    nullity,
    spectra_batch,
    spectrum,
    zero_tolerance,
)
from .indices import (
    INDEX_NAMES,
    DegenerateSpectrumError,
    IndexStats,
    InsufficientDataError,
    SpectralIndices,
    StatsSummary,
    compute_indices,
    index_rows,
    index_table,
    indices_batch,
)
from .multipartite import (
    AnalyticSpectrum,
    BipartiteBoundReport,
    ConeReport,
    DegenerateEigenvectorError,
    DensityWitness,
    InvalidOrderError,
    InvalidPartitionError,
    MultipartiteBoundsReport,
    NonMultipartiteBoundsReport,
    NotApplicableError,
    PendantReport,
    PoleInputError,
    SearchBudgetExceededError,
    SpectrumEntry,
    approx_connected_count,
    bipartite_gap_bound,
    cone_lambda_max_bound,
    density_search,
    dispersion_sum,
    kmm_minus_e_spectrum,
    kmm_plus_e_spectrum,
    multipartite_bounds_check,
    multipartite_spectrum,
    nonmultipartite_bounds_check,
    pendant_lambda_min_bound,
    reduced_part_matrix,
    tripartite_roots,
)
from .census import (
    KNOWN_CONNECTED_COUNTS,
    CensusReport,
    DisconnectedInputError,
    EmptySourceError,
    ExtremalResult,
    Graph6FileError,
    Graph6Source,
    Histogram,
    MixedOrdersError,
    OrderTooLargeError,
    canonical_bits,
    enumerate_connected,
    extend_census,
    extremal,
    run_census,
    write_histogram_csvs,
    write_stats_csv,
)
from .verify import CHECK_NAMES, NoCensusError, SuiteResult, partitions, run_check

__version__ = "0.1.0"

"""Online kernel sparsification and Gram-determinant analysis.

The package builds streaming kernel dictionaries by the approximate linear
dependence rule, computes elementary symmetric polynomials of eigenvalue
spectra in log domain, evaluates the resulting dictionary-size tail bounds
and growth-rate predictions, fits kernel least squares over dictionary
features, and ships a seeded Monte Carlo harness that validates the
determinant identities and inequalities end to end.
"""

from .bounds import dict_tail_bound, growth_prediction, sample_threshold
from .harness import (
    McEstimate,
    NystromComparison,
    Sampler,
    load_dictionary,
    mc_det_moment,
    mc_kstar_tail,
    nystrom_compare,
    save_dictionary,
)
from .kernels import (
    KernelSpec,
    NotPsdError,
    gram,
    gram_cross,
    kernel_diag,
    linear,
    logdet_psd_stack,
    polynomial,
    power,
    rbf,
)
from .logvalue import LOG_ZERO, LogValue, is_log_zero, log_binomial
from .regress import RegressionModel
from .sparsifier import (
    Admission,
    Dictionary,
    NumericalConsistencyError,
    run_stream,
)
from .spectrum import empirical_spectrum, synthetic_spectrum
from .symfun import (
    Spectrum,
    log_nu,
    log_nu_row,
    nu_geometric,
    nu_rows,
    tail_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Admission",
    "Dictionary",
    "KernelSpec",
    "LOG_ZERO",
    "LogValue",
    "McEstimate",
    "NotPsdError",
    "NumericalConsistencyError",
    "NystromComparison",
    "RegressionModel",
    "Sampler",
    "Spectrum",
    "dict_tail_bound",
    "empirical_spectrum",
    "gram",
    "gram_cross",
    "growth_prediction",
    "is_log_zero",
    "kernel_diag",
    "linear",
    "load_dictionary",
    "log_binomial",
    "log_nu",
    "log_nu_row",
    "logdet_psd_stack",
    "mc_det_moment",
    "mc_kstar_tail",
    "nu_geometric",
    "nu_rows",
    "nystrom_compare",
    "polynomial",
    "power",
    "rbf",
    "run_stream",
    "sample_threshold",
    "save_dictionary",
    "synthetic_spectrum",
    "tail_sum",
]

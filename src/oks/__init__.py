"""Online kernel sparsification and Gram-determinant analysis.

The package builds streaming kernel dictionaries by the approximate linear
dependence rule, computes elementary symmetric polynomials of eigenvalue
spectra in log domain, evaluates the resulting dictionary-size tail bounds
and growth-rate predictions, fits kernel least squares over dictionary
features, and ships a seeded Monte Carlo harness that validates the
determinant identities and inequalities end to end.
"""

from .bounds import dict_tail_bound, growth_prediction, moment_bound, sample_threshold
from .harness import (
    McEstimate,
    NystromComparison,
    Sampler,
    growth_experiment,
    load_dictionary,
    mc_det_moment,
    mc_expected_gram_det,
    mc_kstar_tail,
    nystrom_compare,
    save_dictionary,
)
from .kernels import (
    KernelSpec,
    NotPsdError,
    eval_kernel,
    gram,
    gram_cross,
    kernel_diag,
    linear,
    log_det_psd,
    polynomial,
    power,
    rbf,
)
from .logvalue import LOG_ZERO, LogValue, is_log_zero, log_binomial
from .regress import RegressionModel
from .sparsifier import (
    Admission,
    Dictionary,
    GrowthTrace,
    NumericalConsistencyError,
    check_alpha_compatible,
    kstar_oracle,
    run_stream,
)
from .spectrum import empirical_spectrum, spectrum_l1_gap, synthetic_spectrum
from .symfun import (
    Spectrum,
    decay_bound,
    esp_brute,
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
    "GrowthTrace",
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
    "check_alpha_compatible",
    "decay_bound",
    "dict_tail_bound",
    "empirical_spectrum",
    "esp_brute",
    "eval_kernel",
    "gram",
    "gram_cross",
    "growth_experiment",
    "growth_prediction",
    "is_log_zero",
    "kernel_diag",
    "kstar_oracle",
    "linear",
    "load_dictionary",
    "log_binomial",
    "log_det_psd",
    "log_nu",
    "log_nu_row",
    "mc_det_moment",
    "mc_expected_gram_det",
    "mc_kstar_tail",
    "moment_bound",
    "nu_geometric",
    "nu_rows",
    "nystrom_compare",
    "polynomial",
    "power",
    "rbf",
    "run_stream",
    "sample_threshold",
    "save_dictionary",
    "spectrum_l1_gap",
    "synthetic_spectrum",
    "tail_sum",
]

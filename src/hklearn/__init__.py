"""Learning kernels as functions: regression over pairs of data points.

A kernel matrix given only on training samples is extended to a full kernel
function by regressing, in a space whose elements are themselves kernels,
onto the matrix entries.  The package provides the pair-indexed Gram
machinery, ridge and support-vector solvers, a divide-and-conquer path for
large problems, and the experiment pipeline around them.
"""

from .base_kernels import (
    GaussianRBF,
    Ideal,
    LogKernel,
    TL1,
    gram_matrix,
)
from .data import fixture_path
from .errors import (
    ConvergenceFailure,
    FormatError,
    HklearnError,
    InvalidInput,
    NumericalFailure,
    PipelineFailure,
    ResourceLimit,
    SlopeUndefined,
    StratificationWarning,
)
from .hyper import (
    HyperKernelParams,
    PairSystem,
    assemble_hyper_gram,
    eval_hyper_kernel,
    full_pair_list,
    scaled_gaussian,
)
from .krr import CoefficientField, KrrConfig, fit_krr
from .learned import (
    DefinitenessReport,
    LearnedKernel,
    eval_all_pairs,
    eval_pairs,
    learned_gram,
    load_learned,
    save_learned,
)
from .pipeline import (
    ExperimentConfig,
    RateStudyReport,
    SvmModel,
    cross_validate,
    data_sigma2,
    fit_extend,
    learning_rate_study,
    ovr_accuracies,
    rmse,
    split_dataset,
    svm_predict,
    svm_train,
)
from .scaling import (
    DecompositionDiagnostics,
    ScalingConfig,
    decomposition_bound,
    fit_decomposed,
    kmeans_partition,
    nystrom_restrict,
    pair_partition,
)
from .svr import (
    SvrConfig,
    SvrModel,
    fit_svr,
)

__version__ = "0.1.0"

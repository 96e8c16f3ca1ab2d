"""widthlab: a numerical laboratory for stable nonlinear approximation.

Measures how well compact model classes can be approximated by maps with a
bounded number of parameters when both the parameter-selection and the
reconstruction maps are required to be Lipschitz.  The toolkit covers
entropy-number brackets, stable encoder/decoder pairs built from greedy
nets, random projections and Lipschitz extension, covering-number growth
bounds for stable-width sequences, a diagonal class separating stable
widths from entropy decay, finite-rank Lipschitz surrogates, and sparse
recovery viewed as a stable encoder/decoder pair.
"""

from .spaces import (
    AlphaSequence,
    FiniteNormedSpace,
    ModelClassSurrogate,
    generate_Kq,
    generate_diag_class,
    generate_sparse_class,
    nearest_distances,
    norm,
    pairwise_distances,
)
from .nets import (
    EntropyBracket,
    Net,
    build_net,
    entropy_bracket,
    greedy_cover,
    greedy_packing,
)
from .extend import (
    ExtensionFeasibilityError,
    LipschitzAudit,
    SampledLipschitzMap,
    kirszbraun_eval_batch,
    lipschitz_audit,
    mcshane_eval,
    sample_pairs,
)
from .stablewidth import (
    CarlCoverBound,
    CarlInputs,
    CarlRateReport,
    DIM_PER_LEVEL,
    EVAL_TOL,
    EncoderDecoderPair,
    JLDistortionError,
    PhiUndefinedError,
    ProbeRecord,
    WidthReport,
    build_stable_pair,
    carl_cover_bound,
    carl_inputs_from_width_series,
    carl_rate_check,
    evaluate_width,
    hilbert_linear_baseline,
    jl_dim,
    jl_project,
    phi_of_eps,
    stability_probe,
)
from .counterexample import (
    CounterexampleReport,
    CounterexampleRow,
    DiagMaps,
    counterexample_report,
    decoder_lipschitz_lower,
    diag_decode,
    diag_encode,
)
from .csrecovery import (
    InstanceOptimalityReport,
    L1ConvergenceError,
    NormBracket,
    OperatorBoundReport,
    RecoveryTrial,
    RipCertificate,
    SensingMatrix,
    build_nonlinear_pair,
    gaussian_matrix,
    instance_optimality_trials,
    l1_decode,
    op_norm_bracket,
    operator_norm_bound_check,
    rip_check,
    sigma_k,
)
from .interp import (
    KuhnMesh,
    MeshBudgetError,
    PipelineLevel,
    PipelineResult,
    PLInterpolant,
    RadialCutoff,
    bump_kernel,
    cutoff_eval,
    cutoff_image_radius,
    finite_rank_pipeline,
    kernel_scale,
    pl_eval_batch,
)
from .demos import (
    DEMOS,
    DemoMap,
    PipelineBudget,
    pipeline_budget,
)

__version__ = "0.1.0"

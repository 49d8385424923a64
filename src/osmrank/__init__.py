"""osmrank: log-linear models over ordered set partitions.

Exact combinatorics, split-merge Metropolis-Hastings inference, binary
latent units with closed-form posteriors, annealed importance sampling
for the partition function, and a collaborative-ranking pipeline with
NDCG/ERR evaluation.
"""

from .combinatorics import (
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    format_partition,
    fubini,
    fubini_asymptotic,
    parse_partition,
    sample_uniform_ordered_partition,
    stirling2,
)
from .core import (
    LogLinearParams,
    MatrixPairModel,
    PairPotentialModel,
    WorthPairModel,
    from_graded_ratings,
    log_ratio_merge,
    log_ratio_split,
    log_weight,
    loglinear_pair_model,
    uniform_pair_model,
)
from .latent import (
    LatentModel,
    effective_pair_model,
    gibbs_mh_step,
    hidden_posterior,
    log_joint_weight,
)
from .learning import (
    CFParams,
    GradientEstimate,
    TrainConfig,
    cf_latent_model,
    estimate_gradient,
    exact_gradient,
    exact_log_likelihood,
    load_checkpoint,
    save_checkpoint,
    sufficient_stats,
    train,
)
from .metrics import err, ndcg_at
from .partition_function import (
    AISConfig,
    AISResult,
    ais_log_z,
    annealed_unnorm_log_prob,
    exact_distribution,
    exact_log_z,
)
from .pipeline import (
    RankedList,
    RatingsDataset,
    SplitSpec,
    complete_rank,
    entropy_filter,
    evaluate_ranking,
    grade_ratings,
    load_ratings,
    reconstruct_rank,
    train_test_split,
    user_partitions,
)
from .sampler import (
    InfeasibleMoveError,
    MoveProposal,
    MoveStats,
    SamplerConfig,
    propose_merge,
    propose_split,
    run_chain,
    transition_matrix,
)

__version__ = "0.1.0"

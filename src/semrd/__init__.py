"""Compression limits for discrete sources with Bayesian-network structure.

The package computes what the structure buys you: factorized entropy and a
matching factorized Huffman codec on the lossless side, and conditional /
multi-constraint rate-distortion solvers with structural bounds on the lossy
side.
"""

from .bn import (
    DEFAULT_SIZE_GUARD,
    MAX_SIZE_GUARD,
    BayesNet,
    Cpt,
    JointTable,
    Partition,
    ValidationReport,
    Variable,
    conditional_partition,
    enumerate_joint,
    joint_probability,
    load_net,
    make_net,
    marginal_table,
    sample,
    save_net,
    size_guard,
    validate,
)
from .bounds import BoundReport, DecompositionReport, lemma1_bounds, lemma2_check
from .codec import (
    Bitstream,
    ComplexityReport,
    FactorizedCodebook,
    PrefixCode,
    build_factorized_codebooks,
    build_joint_huffman,
    complexity_report,
    decode,
    encode,
    expected_length,
    huffman_code,
)
from .errors import (
    CorruptStreamError,
    InvalidStateError,
    SchemaError,
    SizeGuardError,
    UncodableSampleError,
    WrongCodebookError,
)
from .info import (
    binary_entropy,
    conditional_mutual_information,
    entropy_bits,
    joint_entropy_bruteforce,
    joint_entropy_factorized,
    marginal_entropy,
    node_conditional_entropy,
    redundancy_gap,
)
from .nets import (
    binary_chain,
    doubly_symmetric_chain,
    doubly_symmetric_fork,
    doubly_symmetric_joint,
    load_bundled,
    random_net,
)
from .rd import (
    DistortionSpec,
    RdCurve,
    RdPoint,
    ba_conditional,
    ba_conditional_target,
    ba_joint_multi,
    ba_joint_multi_target,
    ba_point,
    ba_target,
    binary_conditional_rd,
    default_slope_grid,
    gaussian_conditional_rd,
    hamming_distortion,
    rd_curve,
    rd_curve_conditional,
    squared_error_distortion,
)

__version__ = "0.1.0"

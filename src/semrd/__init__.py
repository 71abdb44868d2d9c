"""Compression limits for discrete sources with Bayesian-network structure.

The package computes what the structure buys you: factorized entropy and a
matching factorized Huffman codec on the lossless side, and conditional /
multi-constraint rate-distortion solvers with structural bounds on the lossy
side.

``import semrd`` loads the network model, the entropy accounting, the
bundled nets and the error types.  The names of ``codec``, ``rd`` and
``bounds`` are public here too, but their module is imported only when one
of its names is first used (a module ``__getattr__``, PEP 562), so that a
``semrd`` command that needs none of them does not pay for their import.
"""

import importlib as _importlib

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

__version__ = "0.1.0"

# public name -> the module that defines it, imported on first use
_LAZY = {name: module for module, names in (
    ("bounds", "BoundReport DecompositionReport lemma1_bounds lemma2_check"),
    ("codec", "Bitstream ComplexityReport FactorizedCodebook PrefixCode build_factorized_codebooks "
              "build_joint_huffman complexity_report decode encode expected_length huffman_code"),
    ("rd", "RdCurve RdPoint ba_conditional ba_conditional_target ba_joint_multi "
           "ba_joint_multi_target ba_point ba_target binary_conditional_rd default_slope_grid "
           "gaussian_conditional_rd hamming_distortion rd_curve rd_curve_conditional "
           "squared_error_distortion"),
) for name in names.split()}

# the names above and the lazy ones; the submodules ``bn``, ``errors``, ``info``
# and ``nets``, bound here by their import, are not names of the package's own
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, type(_importlib))]
                 + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

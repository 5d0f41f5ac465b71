"""Core maximal-biclique-enumeration algorithms.

The package contains the reconstruction of the prefix-tree based algorithm
(**MBET**, :mod:`repro.core.mbet`) and its space-optimized variant
(**MBETM**, :mod:`repro.core.mbetm`), the baselines it is evaluated against
(:mod:`repro.core.bruteforce`, :mod:`repro.core.mbea`,
:mod:`repro.core.pmbe`, :mod:`repro.core.oombea`), the shared first-level
decomposition (:mod:`repro.core.decompose`), the prefix-tree data structure
itself (:mod:`repro.core.prefixtree`), a parallel driver
(:mod:`repro.core.parallel`) and result verification helpers
(:mod:`repro.core.verify`).

Entry point: :func:`repro.core.base.run_mbe` (re-exported at package top
level) runs any registered algorithm by name and returns an
:class:`~repro.core.base.MBEResult`.
"""

from repro.core.base import (
    ALGORITHMS,
    Biclique,
    EnumerationStats,
    MBEResult,
    available_algorithms,
    run_mbe,
)
from repro.runtime import BudgetExceeded, FaultPlan, RunBudget
from repro.core.bruteforce import BruteForceMBE
from repro.core.mbea import IMBEA, MBEA, NaiveMBE
from repro.core.maxsearch import (
    MaximumBicliqueResult,
    find_maximum_biclique,
)
from repro.core.mbet import MBET
from repro.core.mbetm import MBETM
from repro.core.oombea import OOMBEA
from repro.core.parallel import ParallelMBE
from repro.core.pmbe import PMBE
from repro.core.prefixtree import PrefixTree
from repro.core.verify import is_biclique, is_maximal_biclique, verify_result

__all__ = [
    "ALGORITHMS",
    "Biclique",
    "BruteForceMBE",
    "BudgetExceeded",
    "EnumerationStats",
    "FaultPlan",
    "IMBEA",
    "MBEA",
    "MBEResult",
    "MBET",
    "MBETM",
    "MaximumBicliqueResult",
    "NaiveMBE",
    "OOMBEA",
    "ParallelMBE",
    "PMBE",
    "PrefixTree",
    "RunBudget",
    "available_algorithms",
    "find_maximum_biclique",
    "is_biclique",
    "is_maximal_biclique",
    "run_mbe",
    "verify_result",
]

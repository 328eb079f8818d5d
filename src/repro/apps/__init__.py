"""StreamSDK-sample stand-ins.

The paper grounds its suite in three StreamSDK samples (§IV): matrix
multiplication is *fetch bound*, Binomial Option Pricing is *ALU bound*,
and the Monte Carlo sample is *global-write bound*.  Each module here
builds an IL kernel with the corresponding instruction mix, runs it on the
simulated chips, and — where the computation is element-wise expressible —
also executes it numerically against a NumPy reference.

:mod:`repro.apps.advisor` turns a measured boundedness into the concrete
optimization directions §IV spells out.
"""

from repro.apps.matmul import (
    analyze_matmul,
    matmul_pass_kernel,
    simulated_matmul,
)
from repro.apps.binomial import (
    analyze_binomial,
    binomial_kernel,
    binomial_price_reference,
)
from repro.apps.montecarlo import (
    analyze_montecarlo,
    montecarlo_kernel,
    montecarlo_pi_reference,
)
from repro.apps.advisor import AppAnalysis, Suggestion, advise
from repro.apps.merging import MergeError, MergeReport, merge_kernels, predict_merge

__all__ = [
    "AppAnalysis",
    "MergeError",
    "MergeReport",
    "Suggestion",
    "advise",
    "analyze_binomial",
    "analyze_matmul",
    "analyze_montecarlo",
    "binomial_kernel",
    "binomial_price_reference",
    "matmul_pass_kernel",
    "montecarlo_kernel",
    "merge_kernels",
    "montecarlo_pi_reference",
    "predict_merge",
    "simulated_matmul",
]

"""The paper's kernel generators.

All micro-benchmark kernels derive from the generic generator of the
paper's Figure 3 — a fully data-dependent add chain over the sampled
inputs — with per-benchmark variations:

* :func:`~repro.kernels.generic.generate_generic` — Figure 3; used by the
  ALU:Fetch, read-latency, write-latency and domain-size benchmarks.
* :func:`~repro.kernels.register_usage.generate_register_usage` —
  Figure 6; spreads sampling across TEX clauses (``space``/``step``) to
  control GPR pressure.
* :func:`~repro.kernels.clause_usage.generate_clause_usage` — Figure 5;
  the control kernel with identical clause structure but all sampling up
  front (constant GPR count).
"""

from repro.kernels.params import KernelParams, KernelRecipe, alu_ops_for_ratio
from repro.kernels.generic import generate_generic
from repro.kernels.register_usage import generate_register_usage
from repro.kernels.clause_usage import generate_clause_usage

__all__ = [
    "KernelParams",
    "KernelRecipe",
    "alu_ops_for_ratio",
    "generate_clause_usage",
    "generate_generic",
    "generate_register_usage",
]

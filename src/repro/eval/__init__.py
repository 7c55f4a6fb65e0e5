"""Evaluation harness: configurations, ground truth, and the paper's
tables and figures.

* :mod:`repro.eval.configs` — the eight ``Tt-Nn`` thread/node
  configurations of Section VII;
* :mod:`repro.eval.groundtruth` — the interleave oracle (a case is
  *actually* RMC when whole-program interleaving speeds it up >10%);
* :mod:`repro.eval.experiments` — drivers regenerating Tables II-VII and
  Figures 3-8;
* :mod:`repro.eval.faulted` — the same detection experiments run through
  the :mod:`repro.faults` injection layer (robustness evaluation);
* :mod:`repro.eval.tables` — paper-style text rendering of results.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.eval.configs": ("EVAL_CONFIGS", "RunConfig"),
    "repro.eval.groundtruth": ("interleave_oracle", "OracleVerdict"),
})

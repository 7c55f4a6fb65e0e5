"""DR-BW's core: profiler, feature extraction, classifier, diagnoser.

This package is the paper's contribution proper:

* :mod:`repro.core.profiler` — runs a workload with PEBS-style sampling,
  associates samples with interconnect channels, and attributes them to
  heap data objects (paper Section IV);
* :mod:`repro.core.features` — the candidate feature list and the 13
  selected features of Table I (Section V.B);
* :mod:`repro.core.selection` — the good-vs-rmc significance screen that
  produced Table I;
* :mod:`repro.core.dtree` — a from-scratch CART decision tree (the paper
  used Matlab's toolbox; sklearn is unavailable offline);
* :mod:`repro.core.training` — micro-benchmark training-set collection
  (Table II) and classifier fitting (Table III / Figure 3);
* :mod:`repro.core.classifier` — per-channel and per-case classification
  rules (Section VII.A);
* :mod:`repro.core.diagnoser` — Contribution Fraction metrics and
  root-cause ranking (Section VI);
* :mod:`repro.core.validation` — stratified k-fold cross-validation and
  confusion matrices;
* :mod:`repro.core.report` — human-readable diagnosis reports.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.profiler": ("DrBwProfiler", "ProfileResult"),
    "repro.core.features": (
        "FeatureVector",
        "SampleSet",
        "extract_channel_features",
    ),
    "repro.core.dtree": ("DecisionTreeClassifier",),
    "repro.core.classifier": ("DrBwClassifier",),
    "repro.core.diagnoser": ("Diagnoser", "DiagnosisReport"),
})

"""Tests for the fault-injected detection experiments (small subsets;
full sweeps live in ``benchmarks/``)."""

import pytest

from repro.eval.configs import RunConfig
from repro.eval.experiments import run_table5_detection
from repro.eval.faulted import run_detection_under_faults, run_table6_under_faults
from repro.eval.tables import format_table6_faulted
from repro.faults import FAULT_PRESETS, FaultPlan

SUBSET = ["AMG2006", "EP"]
CONFIGS = (RunConfig(16, 4), RunConfig(32, 2))


class TestFaultedDetection:
    @pytest.fixture(scope="class")
    def faulted(self, trained):
        return run_detection_under_faults(
            FAULT_PRESETS["standard"], benchmarks=SUBSET, configs=CONFIGS
        )

    def test_same_case_grid_as_clean_run(self, faulted, trained):
        clean = run_table5_detection(benchmarks=SUBSET, configs=CONFIGS)
        assert [(c.benchmark, c.input_name, c.config) for c in faulted.cases] == [
            (c.benchmark, c.input_name, c.config) for c in clean.cases
        ]
        # The oracle is independent of the fault plan.
        assert [c.actual for c in faulted.cases] == [c.actual for c in clean.cases]

    def test_degradation_ledger_populated(self, faulted):
        deg = faulted.dropped
        assert deg.observed > 0
        assert deg.total_quarantined > 0 or deg.injected
        assert deg.kept <= deg.observed

    def test_zero_plan_matches_clean_detection(self, trained):
        clean = run_table5_detection(benchmarks=SUBSET, configs=CONFIGS)
        zero = run_detection_under_faults(
            FaultPlan(), benchmarks=SUBSET, configs=CONFIGS
        )
        assert [c.detected for c in zero.cases] == [c.detected for c in clean.cases]
        assert zero.dropped.is_clean

    def test_accuracy_within_five_points_of_clean(self, trained):
        result = run_table6_under_faults(
            "standard", benchmarks=SUBSET, configs=CONFIGS
        )
        assert abs(result.accuracy_delta) <= 0.05
        text = format_table6_faulted(result)
        assert "fault plan:" in text
        assert "accuracy delta:" in text

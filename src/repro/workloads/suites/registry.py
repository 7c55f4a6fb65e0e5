"""Registry of the paper's 23 evaluation benchmarks.

Each :class:`BenchmarkSpec` records the suite, the input list used in
Table V (the paper runs PARSEC with four inputs, NPB with three classes,
etc.), and a builder mapping an input name to a workload.  The product of
inputs × the eight ``Tt-Nn`` configurations gives exactly the paper's
case counts (512 total across the 21 Table V rows).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import WorkloadError

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__all__ = ["BenchmarkSpec", "BENCHMARKS", "benchmark", "benchmark_names"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One evaluation benchmark: its inputs and workload builder."""

    name: str
    suite: str
    inputs: tuple[str, ...]
    builder: Callable[[str], Workload]
    #: Benchmark-level class in the paper's Table IV.
    paper_class: str  # "good" | "rmc"
    #: Whether the benchmark appears in Table V (LULESH does not).
    in_table5: bool = True

    def build(self, input_name: str) -> Workload:
        """Workload for one input."""
        if input_name not in self.inputs:
            raise WorkloadError(
                f"{self.name} has inputs {self.inputs}, not {input_name!r}"
            )
        return self.builder(input_name)

    @property
    def n_cases(self) -> int:
        """Inputs × the eight thread/node configurations."""
        return len(self.inputs) * 8


def _suite(module: str, factory: str, *args: str) -> Callable[[str], Workload]:
    """A builder calling ``module.factory(*args, input_name)``; the suite
    module (and with it numpy and the workload DSL) is imported on the
    first build, so listing the registry stays cheap."""

    def build(input_name: str) -> Workload:
        suite = importlib.import_module(f"repro.workloads.suites.{module}")
        return getattr(suite, factory)(*args, input_name)

    return build


_NPB3 = ("A", "B", "C")
_PARSEC4 = ("simsmall", "simmedium", "simlarge", "native")

BENCHMARKS: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        # -- PARSEC ---------------------------------------------------------
        BenchmarkSpec("Swaptions", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "Swaptions"), "good"),
        BenchmarkSpec("Blackscholes", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "Blackscholes"), "good"),
        BenchmarkSpec("Bodytrack", "parsec", ("simlarge", "native"),
                      _suite("parsec", "make_parsec", "Bodytrack"), "good"),
        BenchmarkSpec("Freqmine", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "Freqmine"), "good"),
        BenchmarkSpec("Ferret", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "Ferret"), "good"),
        BenchmarkSpec("Fluidanimate", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "Fluidanimate"), "good"),
        BenchmarkSpec("X264", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "X264"), "good"),
        BenchmarkSpec("Raytrace", "parsec", _PARSEC4,
                      _suite("parsec", "make_parsec", "Raytrace"), "good",
                      in_table5=False),
        BenchmarkSpec("Streamcluster", "parsec", ("simlarge", "native"),
                      _suite("parsec", "make_parsec", "Streamcluster"), "rmc"),
        # -- NPB --------------------------------------------------------------
        BenchmarkSpec("BT", "npb", _NPB3, _suite("npb", "make_npb", "BT"), "good"),
        BenchmarkSpec("CG", "npb", _NPB3, _suite("npb", "make_npb", "CG"), "good"),
        BenchmarkSpec("DC", "npb", ("A", "B"), _suite("npb", "make_npb", "DC"), "good"),
        BenchmarkSpec("EP", "npb", _NPB3, _suite("npb", "make_npb", "EP"), "good"),
        BenchmarkSpec("FT", "npb", _NPB3, _suite("npb", "make_npb", "FT"), "good"),
        BenchmarkSpec("IS", "npb", _NPB3, _suite("npb", "make_npb", "IS"), "good"),
        BenchmarkSpec("LU", "npb", _NPB3, _suite("npb", "make_npb", "LU"), "good"),
        BenchmarkSpec("MG", "npb", _NPB3, _suite("npb", "make_npb", "MG"), "good"),
        BenchmarkSpec("UA", "npb", _NPB3, _suite("npb", "make_npb", "UA"), "good"),
        BenchmarkSpec("SP", "npb", _NPB3, _suite("npb", "make_npb", "SP"), "rmc"),
        # -- Rodinia ------------------------------------------------------------
        BenchmarkSpec("NW", "rodinia", ("small", "default", "large"),
                      _suite("rodinia", "make_nw"), "rmc"),
        # -- Sequoia ------------------------------------------------------------
        BenchmarkSpec("AMG2006", "sequoia", ("30x30x30",),
                      _suite("sequoia", "make_amg2006"), "rmc"),
        BenchmarkSpec("IRSmk", "sequoia", ("small", "medium", "large"),
                      _suite("sequoia", "make_irsmk"), "rmc"),
        # -- LULESH (case study only; not a Table V row) -------------------------
        BenchmarkSpec("LULESH", "llnl", ("large",),
                      _suite("lulesh", "make_lulesh"), "rmc", in_table5=False),
    )
}


def benchmark(name: str) -> BenchmarkSpec:
    """Spec by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise WorkloadError(f"unknown benchmark {name!r}") from None


def benchmark_names(table5_only: bool = False) -> list[str]:
    """All benchmark names (optionally only the Table V rows)."""
    return [
        n for n, s in BENCHMARKS.items() if s.in_table5 or not table5_only
    ]

"""Import-graph guards: ``drbw`` loads only what the running command uses.

``repro.cli`` holds the parser and a dispatch table; the command bodies
live in :mod:`repro.commands` and the package ``__init__``s resolve their
public names lazily.  Each check runs in a fresh interpreter, since the
test session itself has long since imported everything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import subprocess
import sys


from repro import cli

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules a bare ``import repro.cli`` must not load.
HEAVY = (
    "numpy",
    "repro.core.profiler",
    "repro.service",
    "repro.monitor",
    "repro.fleet",
)

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.eval",
    "repro.fleet",
    "repro.monitor",
    "repro.numasim",
    "repro.optim",
    "repro.osl",
    "repro.parallel",
    "repro.pmu",
    "repro.service",
    "repro.slo",
    "repro.telemetry",
    "repro.workloads",
    "repro.workloads.suites",
)


def _last_json_line(code: str):
    """Run ``code`` in a fresh interpreter; the JSON of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    return set(_last_json_line(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    ))


def test_import_cli_loads_no_pipeline():
    loaded = _loaded_after("import repro.cli")
    assert not loaded & set(HEAVY)


def test_list_loads_no_numpy():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['list']) == 0\n"
    )
    assert "numpy" not in loaded
    assert "repro.workloads.base" not in loaded


def test_service_import_pipeline_covers_every_job(tmp_path, trained):
    """What ``drbw serve`` imports before it reports ready is everything a
    job needs: executing jobs afterwards imports no repro or numpy module."""
    clf, _ = trained
    model = tmp_path / "model.json"
    model.write_text(json.dumps(clf.to_dict()))
    late = _last_json_line(
        "import json, sys\n"
        "from repro.service.jobspec import execute_job, import_pipeline\n"
        "from repro.parallel.shards import benchmark_workload_spec, profile_shard\n"
        "import_pipeline()\n"
        "before = set(sys.modules)\n"
        "execute_job({'kind': 'profile', 'seed': 1, 'spec': profile_shard(\n"
        "    benchmark_workload_spec('NW', 'small'), 4, 2)})\n"
        "execute_job({'kind': 'diagnose', 'benchmark': 'NW', 'input': 'small',\n"
        f"             'config': 'T4-N2', 'faults': 'standard', 'model': {str(model)!r}}})\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m.startswith(('repro', 'numpy')))))\n"
    )
    assert late == []


def test_help_preset_names_match_the_fault_presets():
    from repro.faults import FAULT_PRESETS, INFRA_PRESETS

    assert cli.FAULT_PRESET_NAMES == tuple(FAULT_PRESETS)
    assert cli.INFRA_PRESET_NAMES == tuple(INFRA_PRESETS)


def test_dispatch_table_covers_every_command():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli.COMMANDS)
    for module, function in cli.COMMANDS.values():
        assert callable(getattr(importlib.import_module(module), function))


def test_lazy_package_exports_resolve():
    """In a fresh interpreter, ``dir()`` of each lazy package lists its
    whole ``__all__`` before anything is resolved, and every name then
    resolves; unknown names stay an AttributeError."""
    problems = _last_json_line(
        "import importlib, json\n"
        "problems = []\n"
        f"for package in {LAZY_PACKAGES!r}:\n"
        "    pkg = importlib.import_module(package)\n"
        "    listing = dir(pkg)\n"
        "    for name in pkg.__all__:\n"
        "        if name not in listing:\n"
        "            problems.append(f'{package}.{name} not in dir()')\n"
        "        try:\n"
        "            getattr(pkg, name)\n"
        "        except AttributeError:\n"
        "            problems.append(f'{package}.{name} does not resolve')\n"
        "    if hasattr(pkg, 'no_such_name'):\n"
        "        problems.append(f'{package}.no_such_name resolves')\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []

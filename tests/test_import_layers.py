"""The layer diagram of docs/architecture.md, as assertions.

Package ``__init__``s re-export lazily and library code imports from
the defining module, so what a process loads follows from what it
runs.  Each case imports in a fresh interpreter and inspects
``sys.modules``: a stray eager import anywhere on the path (a package
``__init__`` re-exporting eagerly, a module-level import a handler
should own) shows up here as a module that must not be loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Set

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _loaded(code: str) -> Set[str]:
    """Every module in ``sys.modules`` after running ``code`` fresh."""
    script = textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _under(modules: Set[str], *prefixes: str) -> Set[str]:
    """The modules that are one of ``prefixes`` or inside one of them."""
    return {
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    }


def _import_all(package: str) -> str:
    """Code importing ``package`` and every module beneath it."""
    return f"""
        import importlib, pkgutil
        import {package} as package
        for info in pkgutil.walk_packages(package.__path__, "{package}."):
            importlib.import_module(info.name)
    """


class TestCli:
    def test_import_cli_loads_only_the_parser(self):
        loaded = _loaded("import repro.cli")
        assert "numpy" not in loaded
        assert not _under(
            loaded,
            "repro.serve",
            "repro.store.ledger",
            "repro.store.segment",
            "repro.verify",
            "repro.robust.supervisor",
            "repro.golden",
        )
        assert not {name for name in loaded if name.startswith("repro.experiments.fig")}

    def test_version_flag_loads_no_numpy(self):
        loaded = _loaded("""
            from repro.cli import main
            try:
                main(["--version"])
            except SystemExit:
                pass
        """)
        assert "numpy" not in loaded

    def test_table_experiments_need_no_numpy(self):
        loaded = _loaded("""
            from repro.experiments import run_experiment
            for name in ("table1", "table2", "table3", "table4"):
                run_experiment(name)
        """)
        assert "numpy" not in loaded
        assert not {name for name in loaded if name.startswith("repro.experiments.fig")}


class TestLayers:
    def test_import_repro_loads_no_subsystem(self):
        assert _under(_loaded("import repro"), "repro") == {"repro", "repro._lazy"}

    def test_errors_load_no_other_subpackage(self):
        assert _under(_loaded("import repro.errors"), "repro") == {
            "repro", "repro._lazy", "repro.errors",
        }

    def test_engine_loads_no_ledger_service_or_verifier(self):
        loaded = _loaded(_import_all("repro.engine"))
        assert not _under(loaded, "repro.serve", "repro.store.ledger", "repro.verify")

    @pytest.mark.parametrize("package", ["repro.analytical", "repro.golden"])
    def test_independent_models_never_load_the_engine(self, package):
        # analytical and golden are independent models of the machine the
        # engine simulates; the cross-model tests compare them from outside
        loaded = _loaded(_import_all(package))
        assert not _under(loaded, "repro.engine")

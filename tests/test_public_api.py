"""The documented public API stays importable and minimally usable."""

import importlib
import inspect
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import repro

#: ``repro`` and every subpackage that declares ``__all__``.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and hasattr(importlib.import_module(info.name), "__all__")
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_source_version_mirrors_pyproject(self):
        # a source checkout reports the pinned string without reading
        # metadata, so it must track pyproject.toml's version
        from repro import _version

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        pinned = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
        assert _version._source_checkout()
        assert pinned.group(1) == _version._SOURCE_VERSION


class TestQuickstartPath:
    """The README's five-line quickstart must keep working."""

    def test_simulate_one_layer(self):
        config = repro.HardwareConfig(array_rows=16, array_cols=16)
        layer = repro.ConvLayer(
            name="conv", ifmap_h=14, ifmap_w=14, filter_h=3, filter_w=3,
            channels=16, num_filters=32, stride=1,
        )
        result = repro.Simulator(config).run_layer(layer)
        assert result.total_cycles > 0

    def test_analyze_scaling(self):
        layer = repro.language_layer("TF1")
        up = repro.best_scaleup(layer, 4096)
        out = repro.best_scaleout(layer, 4096)
        assert out.runtime <= up.runtime

    def test_error_hierarchy(self):
        assert issubclass(repro.ConfigError, repro.ReproError)
        assert issubclass(repro.DramError, repro.ReproError)


@pytest.mark.parametrize("package", PACKAGES)
class TestPackageSurfaces:
    """Every package surface resolves lazily to the defining objects."""

    def test_every_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), name

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_misspelt_attribute_names_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            module.no_such_public_name

    def test_objects_are_the_defining_modules_own(self, package):
        # the supervised pool pickles functions and classes by reference:
        # a re-export must be the very object its defining module holds
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if not (inspect.isclass(value) or inspect.isfunction(value)):
                continue
            owner = importlib.import_module(value.__module__)
            assert getattr(owner, value.__qualname__) is value, name
            assert pickle.loads(pickle.dumps(value)) is value, name

    def test_top_level_reexports_are_one_object(self, package):
        module = importlib.import_module(package)
        for name in set(module.__all__) & set(repro.__all__):
            assert getattr(repro, name) is getattr(module, name), name


class TestLazyResolution:
    def test_submodule_attribute_imports_it(self):
        assert repro.engine.simulator.Simulator is repro.Simulator

    def test_top_level_matches_defining_module(self):
        from repro.engine.simulator import Simulator
        from repro.perf.cache import cache

        assert repro.Simulator is Simulator
        assert repro.perf.cache is cache

"""Every name the benchmark's tracer wraps still resolves in the package.

``perfbench/layers.py`` wraps functions by name at run time.  A name that no
longer resolves is not an error there: the metric it feeds is reported with
no value.  These tests read the tracer's own lists, so a rename or a move in
``src/`` that would blank a benchmark reading fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    # loaded by path, without installing the tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(layers):
    missing = []
    for _, target in layers.BOUNDARIES:
        try:
            layers._resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc}")
    assert layers.BOUNDARIES and not missing, missing


def test_every_foreign_counter_has_a_place(layers):
    # The tracer reports a counter as absent when none of its places exists.
    def exists(module_name, attr):
        try:
            return hasattr(importlib.import_module(module_name), attr)
        except ImportError:
            return False

    assert layers.FOREIGN_COUNTERS
    for counter, places in layers.FOREIGN_COUNTERS.items():
        assert any(exists(*place) for place in places), (counter, places)


def test_wigner_kernels_report_their_caches(layers):
    from odfprobe import angular

    for name in ("_wigner_3j_doubled", "_wigner_6j_doubled"):
        assert callable(getattr(angular, name).cache_info), name
    angular.wigner_3j(1, 1, 0, 0, 0, 0)
    hits, misses = layers.cache_stats()
    assert hits + misses > 0

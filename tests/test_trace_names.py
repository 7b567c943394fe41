"""The benchmark's traced names must exist in facetforge.

perfbench/tracing.py rebinds each LAYERS entry by name when a run traces,
so renaming or deleting one breaks only traced benchmark runs.  The module
is stdlib-only and is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_facetforge_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"facetforge.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"

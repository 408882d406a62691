"""Every name a package re-exports in ``__all__`` resolves."""
import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["repro.core", "repro.gbdt", "repro.baselines", "repro.models"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"

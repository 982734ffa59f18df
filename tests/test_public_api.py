"""Every name a package exports resolves.

``__all__`` is the public surface the README and callers rely on; a name
left in it after its definition is deleted fails ``from ... import *``
only when someone tries it, so each one is looked up here.
"""
import importlib

import pytest

PACKAGES = ("linksim", "linksim.harness", "linksim.baseband")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)

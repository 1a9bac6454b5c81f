"""The package's public surface: the union of its five layers' names."""

import importlib

import taurho

LAYERS = ("shuffles", "concordance", "region", "realize", "verify")


def test_all_is_the_layers_lists():
    modules = [importlib.import_module(f"taurho.{name}") for name in LAYERS]
    assert taurho.__all__ == [n for m in modules for n in m.__all__] + ["__version__"]
    assert len(set(taurho.__all__)) == len(taurho.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(taurho, name) is getattr(module, name), name

"""Each layer module exports exactly the functions and classes it defines,
and the package re-exports every one of them."""

import importlib
import inspect

import pytest

import seldet as sd

LAYERS = ("sparse_core", "ordering", "symbolic", "numeric", "selinv",
          "reml", "datagen")


def _defined(mod):
    """Public functions and classes whose home is ``mod``."""
    return {name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_lists_what_it_defines(layer):
    mod = importlib.import_module(f"seldet.{layer}")
    exported = set(mod.__all__)
    assert len(mod.__all__) == len(exported), "duplicate names in __all__"
    assert all(hasattr(mod, name) for name in exported)
    listed = {name for name in exported
              if inspect.isfunction(getattr(mod, name))
              or inspect.isclass(getattr(mod, name))}
    assert listed == _defined(mod)


@pytest.mark.parametrize("layer", LAYERS + ("errors",))
def test_package_reexports_every_layer(layer):
    mod = importlib.import_module(f"seldet.{layer}")
    names = set(getattr(mod, "__all__", ())) | _defined(mod)
    assert names <= set(sd.__all__)
    for name in names:
        assert getattr(sd, name) is getattr(mod, name)


def test_package_all_resolves():
    assert len(sd.__all__) == len(set(sd.__all__))
    assert all(hasattr(sd, name) for name in sd.__all__)


def test_package_all_is_the_layers_lists():
    layers = [importlib.import_module(f"seldet.{layer}")
              for layer in LAYERS + ("errors",)]
    union = {name for mod in layers for name in mod.__all__}
    assert set(sd.__all__) == union | {"__version__"}

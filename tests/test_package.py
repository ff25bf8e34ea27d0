"""The package's public names: resolved on first access, each the object its
home module defines."""

import importlib

import pytest

import mfrac

PUBLIC = [name for name in mfrac.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_home_modules_object(name):
    value = getattr(mfrac, name)
    home = value.__module__
    assert home.startswith("mfrac.")
    assert getattr(importlib.import_module(home), name) is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from mfrac import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mfrac.__all__)
    assert namespace["__version__"] == mfrac.__version__


def test_dir_lists_every_public_name():
    assert set(mfrac.__all__) <= set(dir(mfrac))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'refine'"):
        mfrac.refine  # noqa: B018  (quad's engine loop is not a package-level name)
    assert not hasattr(mfrac, "no_such_name")

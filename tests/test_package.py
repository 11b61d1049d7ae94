"""Tests of the package's public surface: the names each __all__ promises."""

import importlib
import pkgutil

import pytest

import morsereduce

MODULES = sorted(info.name for info in pkgutil.iter_modules(morsereduce.__path__))


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_name_in_all_resolves(name):
    # perfbench/bench_trace.py wraps each layer's public functions by
    # getattr over its __all__, so a stale entry breaks the traced run.
    mod = importlib.import_module("morsereduce" + (f".{name}" if name else ""))
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_star_import_binds_exactly_the_package_all():
    namespace: dict = {}
    exec("from morsereduce import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(morsereduce.__all__)

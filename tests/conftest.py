"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import kahlerlab

_MODULES = [importlib.import_module(f"kahlerlab.{info.name}")
            for info in pkgutil.iter_modules(kahlerlab.__path__)]


def _clear_caches():
    for module in _MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_caches():
    """No table built before the test, or while a builder was patched,
    outlives it: every lru_cache of the package is cleared before and after."""
    _clear_caches()
    yield
    _clear_caches()

"""Lazy package namespaces (PEP 562).

A package ``__init__`` names each of its exports once, under the module that
defines it, and imports nothing::

    __all__, __getattr__, __dir__ = exports(__name__, {
        ".greedy": ("GreedyConfig", "GreedyReceiverPolicy"),
    })

An export's module loads on the first access to any of its names, and the
value is then stored on the package, so later lookups are plain attribute
reads.  A process therefore loads only the modules it uses: ``import repro``
loads no ``repro.*`` submodule at all.  ``tests/test_imports.py`` checks that
every exported name resolves, since a stale entry fails only when it is read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a module name, relative to ``package`` as in a
    ``from .module import name`` statement, to the names it exports.
    """
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owners.keys())

    return list(owners), __getattr__, __dir__

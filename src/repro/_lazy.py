"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports its submodules' names would
import every submodule as soon as any one of them is imported: loading
``repro.sim.inputs`` would load the whole engine. Instead each package
declares which submodule holds each name it exports, and
:func:`attach` gives it a module ``__getattr__`` that imports that
submodule on the first access to one of its names (the pattern of
Scientific Python SPEC 1). The package keeps its real imports under
``if TYPE_CHECKING:``, so type checkers and linters still see them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def attach(package: str, exports: dict[str, tuple[str, ...]]
           ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each submodule (a name relative to ``package``) to
    the names the package exports from it. The first access to a name
    imports its submodule and caches the value in the package namespace,
    so later accesses never reach ``__getattr__``.

    A name that is also its own submodule's name (``repro.spm.explore``)
    is imported here, with the package: importing a submodule binds the
    module to its name in the package, which would hide the export from
    ``__getattr__``.
    """
    owner = {name: f"{package}.{module}"
             for module, names in exports.items() for name in names}
    for module, names in exports.items():
        if module in names:
            value = getattr(importlib.import_module(owner[module]), module)
            setattr(sys.modules[package], module, value)

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return __getattr__, __dir__

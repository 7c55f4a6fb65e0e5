"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package names each public attribute's defining module once;
:func:`lazy_exports` returns the module-level ``__getattr__``/``__dir__``
pair that imports the defining module on first access, and the names as
the package's ``__all__``.  ``import repro.x`` then costs only the
package's own file, while ``from repro.x import Y`` and ``repro.x.Y``
keep working — which is what keeps a no-op ``drbw list`` from importing
numpy and the whole pipeline.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a defining module (absolute name) to the public
    names it provides; those names are the package's ``__all__``.  A
    resolved name is cached in the package's namespace, so each defining
    module is looked up once.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)

"""Package re-exports resolved on first use (PEP 562)."""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The public names, ``__getattr__`` and ``__dir__`` of a package
    whose re-exports are ``exports`` (module -> names defined there).

    A name's module is imported on the name's first lookup, and the
    object is bound in ``namespace`` (the package's ``globals()``): every
    later lookup is a plain attribute read, and code that patches a
    function by identity over ``vars(package)`` finds it there.
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(module_of))

    return list(module_of), __getattr__, __dir__

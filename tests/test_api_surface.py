"""The size of the public API, as two checked counts.

A change that adds or removes an option or an exported name updates the
count here in the same diff, so the API grows or shrinks on purpose.
"""

import dataclasses
import importlib
import inspect
import types

import biblionet

LAYER_MODULES = ("cli", "dedup", "graph_stats", "graphs", "keywords", "metrics", "normalize", "wos_ingest")


def defaulted_parameters(function) -> int:
    return sum(p.default is not p.empty for p in inspect.signature(function).parameters.values())


def defaulted_fields(cls) -> int:
    return sum(
        f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        for f in dataclasses.fields(cls) if f.init
    )


def options(module) -> int:
    """Parameters with a default over the module's public functions and
    the public methods of its public classes, plus the defaulted fields
    of its public dataclasses."""
    count = 0
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            count += defaulted_parameters(obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                count += defaulted_fields(obj)
            for method_name, method in vars(obj).items():
                method = getattr(method, "__func__", method)  # classmethod, staticmethod
                if not method_name.startswith("_") and inspect.isfunction(method):
                    count += defaulted_parameters(method)
    return count


def test_option_count():
    assert sum(options(importlib.import_module(f"biblionet.{name}")) for name in LAYER_MODULES) == 50


def test_exported_name_count():
    exported = [
        name for name, value in vars(biblionet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(exported) == 62

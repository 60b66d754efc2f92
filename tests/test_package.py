"""The package namespace."""

import importlib
import inspect
import pkgutil

import twoscale_ll


def test_every_library_exception_is_re_exported():
    # public calls raise these, so callers catch them from the package
    found = set()
    for info in pkgutil.iter_modules(twoscale_ll.__path__):
        mod = importlib.import_module(f"twoscale_ll.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == mod.__name__):
                found.add(name)
                assert getattr(twoscale_ll, name, None) is obj, name
    assert {"BlowUpError", "ConfigError", "DegenerateCellError",
            "ModeMismatchError", "ShapeMismatchError"} <= found

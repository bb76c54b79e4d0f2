"""The package's public name list: sorted, unique, and every name importable; and
every call the README names exists."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import dualruled

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_and_unique():
    assert dualruled.__all__ == sorted(set(dualruled.__all__))


def test_every_public_name_resolves():
    missing = [name for name in dualruled.__all__ if not hasattr(dualruled, name)]
    assert missing == []
    namespace = {}
    exec("from dualruled import *", namespace)
    assert set(dualruled.__all__) <= set(namespace)


def test_every_call_in_the_readme_exists():
    # a call written in backticks, `name(...)`, must name an attribute of a dualruled
    # module or of a class one of them defines
    names = set()
    for info in pkgutil.iter_modules(dualruled.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"dualruled.{info.name}")
        names.update(dir(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                names.update(dir(cls))
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", README.read_text(encoding="utf-8")))
    assert called
    assert sorted(called - names) == []

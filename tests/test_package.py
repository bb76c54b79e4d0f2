"""The package's public name list: sorted, unique, and every name importable."""

import dualruled


def test_all_is_sorted_and_unique():
    assert dualruled.__all__ == sorted(set(dualruled.__all__))


def test_every_public_name_resolves():
    missing = [name for name in dualruled.__all__ if not hasattr(dualruled, name)]
    assert missing == []
    namespace = {}
    exec("from dualruled import *", namespace)
    assert set(dualruled.__all__) <= set(namespace)

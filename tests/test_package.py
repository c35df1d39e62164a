"""The package namespace: what ``from reskernel import *`` exports."""

import reskernel


def test_every_exported_name_resolves_once():
    names = reskernel.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(reskernel, name)]
    assert missing == []
    namespace = {}
    exec("from reskernel import *", namespace)
    assert set(names) <= set(namespace)

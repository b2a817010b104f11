"""The package namespace: what ``dipolink`` exports."""

import types

import dipolink


def test_all_lists_every_public_name():
    public = [
        name
        for name, value in vars(dipolink).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(dipolink.__all__) == sorted(public)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dipolink import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(dipolink.__all__)
    assert not any(isinstance(namespace[name], types.ModuleType) for name in bound)
    assert len(dipolink.__all__) == len(set(dipolink.__all__))

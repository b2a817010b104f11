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

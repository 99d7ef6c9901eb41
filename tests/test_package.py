"""The package's public names."""

import types

import pomdp_perception
from pomdp_perception import gridworld, pbvi, pomdp, selection


def test_the_package_exports_exactly_the_modules_public_names():
    modules = (pomdp, pbvi, selection, gridworld)
    declared = [name for module in modules for name in module.__all__]
    assert len(set(declared)) == len(declared)
    exported = {
        name
        for name, value in vars(pomdp_perception).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(pomdp_perception, name) is getattr(module, name)

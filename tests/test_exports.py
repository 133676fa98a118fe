import importlib

import locindex

MODULES = ("association", "bandwidth", "dataset", "rearrangement", "smoothing")


def test_package_exports_are_the_union_of_the_modules_exports():
    origin = {}
    for name in MODULES:
        module = importlib.import_module(f"locindex.{name}")
        for export in module.__all__:
            assert export not in origin, f"{export} exported by two modules"
            origin[export] = getattr(module, export)  # every name resolves
    assert sorted(locindex.__all__) == sorted(origin)
    for export, obj in origin.items():
        assert getattr(locindex, export) is obj, export

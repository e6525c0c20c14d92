import types

import ghzdense


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from ghzdense import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ghzdense.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())

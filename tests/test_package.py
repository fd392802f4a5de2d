from types import ModuleType

import matroid_hopf


def test_all_names_every_public_object_and_no_module():
    names = matroid_hopf.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(matroid_hopf, name), ModuleType), name
    public = {
        name
        for name, value in vars(matroid_hopf).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(names)

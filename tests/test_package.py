import subdesign


def test_export_list_resolves():
    names = subdesign.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(subdesign, name), name
    namespace = {}
    exec("from subdesign import *", namespace)
    assert set(names) <= set(namespace)

import paraunitary as pu


def test_public_names_resolve_once_and_sorted():
    names = pu.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pu, name)] == []

import tofir


def test_every_public_name_resolves():
    assert len(set(tofir.__all__)) == len(tofir.__all__)
    for name in tofir.__all__:
        assert getattr(tofir, name) is not None, name

import snbsde


def test_every_public_name_resolves():
    assert [name for name in snbsde.__all__ if not hasattr(snbsde, name)] == []

import adaridge


def test_every_exported_name_resolves():
    missing = [name for name in adaridge.__all__ if not hasattr(adaridge, name)]
    assert missing == []

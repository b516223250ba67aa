import wcmdp


def test_every_public_name_resolves():
    missing = [name for name in wcmdp.__all__ if not hasattr(wcmdp, name)]
    assert missing == []

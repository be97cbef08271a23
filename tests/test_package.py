"""The package's public surface."""

import postsel


def test_every_exported_name_resolves_once():
    assert len(postsel.__all__) == len(set(postsel.__all__))
    missing = [name for name in postsel.__all__ if not hasattr(postsel, name)]
    assert missing == []

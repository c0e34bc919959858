"""The package's public surface."""

import ggavqe


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(ggavqe.__all__) == len(set(ggavqe.__all__))
    assert [name for name in ggavqe.__all__ if not hasattr(ggavqe, name)] == []

"""Stored errors: what a memo keeps of a CheckerError to raise it again."""

import pytest

from oughtcheck.errors import EmptyProduct, Stored


def test_a_stored_error_rebuilds_its_class_and_args_without_a_traceback():
    try:
        raise EmptyProduct("nothing survives", 2)
    except EmptyProduct as exc:
        stored = Stored(exc)
    assert not hasattr(stored, "__dict__")  # nothing else is kept
    for _ in range(2):
        again = stored.rebuild()
        assert type(again) is EmptyProduct and again.args == ("nothing survives", 2)
        assert again.__traceback__ is None
        with pytest.raises(EmptyProduct, match="nothing survives"):
            raise again

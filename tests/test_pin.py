"""The pin helper itself, on one pin of ``test_fold_pin.py``."""

import pytest

from pin import canonical_json, check
from test_fold_pin import FOLD_PINNED, _fold


def test_a_moved_pin_names_its_table_and_key_and_leaves_its_text(tmp_path):
    """The right digest writes nothing; a wrong one fails with the table, the
    key and the path of a file that holds the exact canonical text."""
    text = canonical_json(_fold(3))
    check(text, FOLD_PINNED[3], "FOLD_PINNED[3]", tmp_path)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(AssertionError) as failure:
        check(text, FOLD_PINNED[4], "FOLD_PINNED[3]", tmp_path)
    path = tmp_path / "canonical.txt"
    message = str(failure.value)
    assert message.startswith("FOLD_PINNED[3] moved: sha256 ")
    assert f"pinned {FOLD_PINNED[4]}" in message and message.endswith(f"text in {path}")
    assert path.read_bytes() == text.encode()

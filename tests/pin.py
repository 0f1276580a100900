"""The one pin decision of the ``test_*_pin.py`` files.

A pin hashes the canonical text of an output and compares its SHA-256 with
the digest in a pin table.  On a mismatch the assertion names the table and
key, and the text is written to ``canonical.txt`` under the test's
``tmp_path``, so that what moved can be read and compared with the same text
at an earlier commit.
"""

import hashlib
import json


def canonical_json(obj):
    """Compact JSON with sorted keys: the text that the JSON pins hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check(text, pinned, label, tmp_path):
    """Assert that the SHA-256 of text is the digest pinned at label."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != pinned:
        path = tmp_path / "canonical.txt"
        path.write_bytes(text.encode())
        raise AssertionError(f"{label} moved: sha256 {digest}, pinned {pinned}; text in {path}")

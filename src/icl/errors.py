"""``IclError``, the root of every exception class in ``icl``, and a JSON
reader that raises it."""

import json
from pathlib import Path


class IclError(Exception):
    """Base class of every error raised by the ``icl`` package."""


def read_json(path):
    """Parse a JSON file; content that is not JSON raises IclError naming the file."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IclError(f"{path} is not valid JSON: {exc}") from exc

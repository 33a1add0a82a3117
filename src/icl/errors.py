"""``IclError``, the root of every exception class in ``icl``; the one JSON
reader, which raises it, and the one writer; the number tests settings share."""

import json
import math
import numbers
import os
from pathlib import Path


class IclError(Exception):
    """Base class of every error raised by the ``icl`` package."""


def read_json(path, parse=None):
    """The JSON at path, or ``parse`` of it. Content that is not JSON, and a missing
    key, a wrong type or an IclError in ``parse``, raise one IclError naming the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IclError(f"{path} is not valid JSON: {exc}") from exc
    if parse is None:
        return doc
    try:
        return parse(doc)
    except IclError as exc:
        raise IclError(f"{path} is malformed: {exc}") from exc
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise IclError(f"{path} is malformed: {exc!r}") from exc


def write_json(path, doc) -> None:
    """Write doc as indented JSON with sorted keys, atomically: through a temp file
    beside path. A doc that does not serialize, or a failed write, leaves path as it was."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def is_int(value) -> bool:
    """An integer, but not a bool: JSON ``true`` must not count as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number, but not a bool: JSON ``NaN`` and ``true`` are refused."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))

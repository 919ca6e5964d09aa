"""Atomic file output.

Every file the package writes goes through atomic_open: the content is
written to a temporary file in the target's directory, which then replaces
the target in one os.replace. A reader sees the old file or the new one,
never a partial write, and a write that fails leaves the old file as it
was and no temporary file behind. (This guards against a failing or
killed writer, not against power loss: nothing is fsynced.)
"""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Yield a file object whose content replaces `path` on a clean exit.

    Text files are UTF-8 with "\\n" line endings. If the body raises, the
    temporary file is removed and `path` is left untouched.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        if binary:
            fh = open(tmp, "wb")
        else:
            fh = open(tmp, "w", encoding="utf-8", newline="\n")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(obj, path) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

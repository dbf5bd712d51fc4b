"""Crash-safe file primitives: the one persistence layer.

The run cache, suite checkpoints, run ledger and the service spool (job
records, results, event and span streams, worker status) are layouts
over these functions: :func:`atomic_write` (temp file + ``os.replace``;
the temp name is the destination suffix plus ``.tmp``, so ``*.pkl`` /
``*.json`` globs never match it), :func:`locked` / :func:`locked_append`
(an exclusive ``flock``), :func:`read_jsonl` (skips torn lines) and
:func:`load_pickle` (evicts corrupt files).

Every function raises ``OSError``; best-effort callers catch it.  There
is no ``fsync``: these files survive a process crash, not a power loss.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import IO, Any

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: :func:`load_pickle` outcomes other than a loaded object.
MISSING = object()
CORRUPT = object()


def atomic_write(path: str | Path, write: Callable[[IO[bytes]], Any]) -> None:
    """Replace *path* with what *write* puts into a binary file handle.

    The parent directory is created if needed.  If *write* or the rename
    raises (``KeyboardInterrupt`` included), the temp file is removed,
    *path* keeps its old contents, and the exception propagates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_pickle(path: str | Path, obj) -> None:
    """:func:`atomic_write` *obj* as a pickle, streamed to disk."""
    atomic_write(path, lambda fh: pickle.dump(
        obj, fh, protocol=pickle.HIGHEST_PROTOCOL))


@contextlib.contextmanager
def locked(path: str | Path) -> Iterator[IO[str]]:
    """Hold an exclusive ``flock`` on *path* for the ``with`` block.

    *path* (and its directory) is created if missing and yielded opened
    for appending.  Where ``fcntl`` is unavailable the block runs
    unlocked.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield fh
        finally:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def locked_append(path: str | Path, *lines: str) -> int:
    """Append *lines*, each ``\\n``-terminated, in one locked write.

    Concurrent appenders never interleave or tear each other's lines.
    Returns how many lines were appended; no lines leaves *path*
    untouched.
    """
    if not lines:
        return 0
    with locked(path) as fh:
        fh.write("".join(line.rstrip("\n") + "\n" for line in lines))
        fh.flush()
    return len(lines)


def read_jsonl(path: str | Path) -> list[dict]:
    """The JSON objects in *path*, one per line, in file order.

    A missing or unreadable file reads as empty.  Each line is decoded
    on its own, so a torn line — even one cut inside a multi-byte UTF-8
    sequence — is skipped without losing the rest.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return []
    records = []
    for line in raw.splitlines():
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # includes UnicodeDecodeError
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def load_pickle(path: str | Path, valid: Callable[[Any], bool]):
    """Unpickle *path*, streaming from disk.

    Returns the object, :data:`MISSING` when *path* cannot be opened, or
    :data:`CORRUPT` when it does not unpickle or the object fails
    *valid* — in which case the file is deleted.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return MISSING
    with fh:
        try:
            obj = pickle.load(fh)
        except Exception:
            obj = CORRUPT
    if obj is CORRUPT or not valid(obj):
        try:
            os.unlink(path)
        except OSError:
            pass
        return CORRUPT
    return obj

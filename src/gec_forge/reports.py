"""File I/O shared by the readers and writers: the bundled data directory,
UTF-8 reads whose errors name the file, and deterministic report
serialization (sorted-key JSON, atomic writes)."""
from __future__ import annotations

import errno
import json
import os
import tempfile

from .errors import InputError

SCHEMA_VERSION = "1"

# Bundled data files, read by path: a zip-imported package is not supported.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def read_text(path, newline: str | None = None) -> str:
    """The whole file as strict UTF-8; a decode error names the file and
    the byte offset in it. newline is passed to open()."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: invalid UTF-8 byte sequence at offset {exc.start}") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise InputError(f"{path}: invalid path: {exc}") from exc


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename. An OSError
    names the target path, not the temp file. Text read by the package is
    strict UTF-8, so only a file name can bring a lone surrogate (a byte of
    the name that is not UTF-8, as the synth-prompt checksum line holds it);
    it is written back as that byte."""
    if not path:  # abspath("") is the working directory: its parent would get the temp file
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", errors="surrogateescape",
                           newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    except ValueError as exc:  # a NUL byte in the path
        raise InputError(f"{path}: invalid path: {exc}") from exc


def write_report(path, kind: str, body: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind, **body}
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    write_text_atomic(path, text)

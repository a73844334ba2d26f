"""On-disk storage: whole-file replacement, the guarded binary store, and the parse cache kept in it.

* :func:`replace_file` writes every file the package writes, so a run that stops mid-write leaves
  the previous file whole.
* :func:`write_store` and :func:`read_store` keep arrays as an uncompressed ``np.savez`` archive,
  one member spec per kind: trained scores, model checkpoints and parse-cache entries.
* :func:`cached` keeps a parser's result in a cache directory as such a store, keyed by the
  content of its input, so a later parse of the same bytes is a store read.
"""

from __future__ import annotations

import glob
import os
import zipfile
from functools import partial
from importlib.util import source_hash
from pathlib import Path
from stat import S_ISREG
from typing import BinaryIO, Callable, Iterable, Mapping

import numpy as np

from .errors import FormatError, InvariantViolation, IoError, ParseError

# What zipfile and np.lib.format.read_array raise on a damaged archive: a missing member
# is a KeyError, an unknown zip version a NotImplementedError, and a header declaring an
# array too large to allocate a MemoryError.
_STORE_FAULTS = (
    zipfile.BadZipFile, KeyError, OSError, ValueError, EOFError, OverflowError, MemoryError, NotImplementedError
)
_LINES = np.dtype(np.uint8)  # an id table's stored dtype


def replace_file(path: Path, data: str | bytes | memoryview | Callable[[BinaryIO], object]) -> None:
    """Write ``data`` to ``.<name>.<pid>.tmp`` beside ``path``, then rename it over ``path``.

    ``data`` is a str (written as UTF-8), bytes, or a function that writes to the open temporary.
    A write that fails leaves ``path`` as it was and no temporary file behind.  The temporary is this
    process's own, so two processes writing one path (say, one parse-cache entry) never share it; one
    that a process no longer running left beside ``path`` is removed first.
    """
    for stale in path.parent.glob(f".{glob.escape(path.name)}.*.tmp"):
        pid = stale.name[len(path.name) + 2:-len(".tmp")]
        if pid.isascii() and pid.isdigit() and not running(int(pid)):
            stale.unlink(missing_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            temporary.write_text(data, encoding="utf-8")
        elif callable(data):
            with temporary.open("wb") as fh:
                data(fh)
        else:
            temporary.write_bytes(data)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def running(pid: int) -> bool:
    """Whether process ``pid`` runs on this machine (on a system without POSIX signals, assumed so)."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # another user's process, or not a pid at all
        pass
    return True


def refuse_unreadable(path: Path, kind: str, ids: Iterable[str], breaks: str) -> None:
    """Raise a FormatError naming the first of ``ids`` that holds one of ``breaks``: written into the
    file ``path``, it would split a field or a line, and the file would not read back."""
    chars = frozenset(breaks)
    for bad in (x for x in ids if not chars.isdisjoint(x)):
        raise FormatError(f"cannot write {kind} {bad!r} to {path}: it holds one of {breaks!r} and would not read back")


def write_store(path: Path, members: Mapping[str, tuple], source: object) -> None:
    """Write the attributes of ``source`` that ``members`` names as the binary store ``path``.

    ``members`` maps each member's name to its dtype and number of dimensions.  The dtype
    is a numpy dtype, or "lines" for an id table, kept as its ids' UTF-8 text (lone
    surrogates passed through), an id to a line, in a uint8 array; an id holding a line
    break is a FormatError raised before any file is touched.  The store is an
    uncompressed ``np.savez`` archive with nothing pickled, one ``<name>.npy`` per member,
    streamed to the temporary file, so no copy of the arrays is held in memory.
    """
    arrays = {name: getattr(source, name) for name in members}
    for name, (dtype, _) in members.items():
        if dtype == "lines":
            ids = arrays[name]
            text = "\n".join(ids) + "\n" if ids else ""
            if text.count("\n") != len(ids):
                refuse_unreadable(path, name, ids, "\n")
            arrays[name] = np.frombuffer(text.encode("utf-8", "surrogatepass"), _LINES)
    replace_file(path, partial(np.savez, **arrays))


def read_store(path: Path, what: str, members: Mapping[str, tuple], build: Callable):
    """``build`` called with the ``members`` of the binary ``what`` store ``path`` as keywords.

    Every member is read without unpickling and must be stored uncompressed, with its
    dtype and number of dimensions; id tables come back as lists of str, split at their
    line breaks.  A missing ``path`` is an IoError.  Any fault in the archive, a member ``members`` does not name, or a
    value ``build`` rejects with an :class:`InvariantViolation` is a ParseError naming it.
    """
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for member in (name.removesuffix(".npy") for name in archive.namelist()):
                if member not in members:
                    raise ParseError(f"{path}: member {member} is not one of {sorted(members)}")
            for name, (dtype, ndim) in members.items():
                info = archive.getinfo(f"{name}.npy")
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise ParseError(f"{path}: member {name} is compressed or encrypted")
                with archive.open(info) as fh:
                    array = np.lib.format.read_array(fh, allow_pickle=False)
                expected = _LINES if dtype == "lines" else dtype
                if array.ndim != ndim or array.dtype != expected:
                    found = f"{array.ndim}-d {array.dtype}"
                    raise ParseError(f"{path}: member {name} is {found}, expected {ndim}-d {expected}")
                if dtype == "lines":
                    array = array.tobytes().decode("utf-8", "surrogatepass").split("\n")
                    if array.pop():
                        raise ParseError(f"{path}: member {name} does not end its last id with a line break")
                arrays[name] = array
    except FileNotFoundError:
        raise IoError(f"{what} store file not found: {path}") from None
    except _STORE_FAULTS as exc:
        raise ParseError(f"{path}: not a readable {what} store ({type(exc).__name__}: {exc})") from None
    try:
        return build(**arrays)
    except InvariantViolation as exc:
        raise ParseError(f"{path}: {exc}") from None


def _checksum(blocks: Iterable[bytes]) -> str:
    """The 64-bit SipHash (``importlib.util.source_hash``) of the hashes of ``blocks``, one by one, and their total
    length, in hex."""
    hashes, size = [], 0
    for block in blocks:
        hashes.append(source_hash(block))
        size += len(block)
    return f"{source_hash(b''.join(hashes)).hex()}{size:x}"


def _digest(path: str | Path) -> str:
    """The :func:`_checksum` of the file ``path``, read in 64 KiB blocks."""
    with open(path, "rb") as fh:
        return _checksum(iter(partial(fh.read, 1 << 16), b""))


def _stamp(path: str | Path) -> tuple[int, int, int] | None:
    """What changes when a file is written or replaced: its inode, size and modification time (None for what is
    not a regular file, such as a pipe, which can be read only once)."""
    stat = os.stat(path)
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns) if S_ISREG(stat.st_mode) else None


def cached(cache: Path | None, kind: str, path: str | Path, args: tuple, members: Mapping[str, tuple],
           parse: Callable, build: Callable, values: Callable = lambda parsed: parsed):
    """``parse()`` of the input ``path``, kept in the parse cache directory ``cache`` (None, or an input that is
    not a regular file: parse only).

    The entry ``<kind>-<slot>-<digest>.npz`` is a binary store of ``members`` (:func:`write_store`), which
    ``values`` gives of the parsed object.  Its slot is the :func:`_checksum` of ``path`` made absolute and of
    ``args``; its digest is that of this package's source files, then that of ``path``'s bytes, so an edit to a
    parser, a constructor or the input misses.  A hit is ``build`` called with the members (:func:`read_store`,
    so through the validating constructor); an entry that does not read back is a miss.  A miss parses, then
    writes the entry and removes the slot's other entries, unless the parse fails or ``path`` changed meanwhile
    (its stamp, or its bytes read again); a write that fails (any ``OSError`` or ``MemoryError``) leaves no
    entry.  So every error is the parser's own, and the cache holds one entry per input path and arguments.
    """
    try:
        stamp = cache and _stamp(path)
        if stamp:
            digest = _digest(path)
            slot = _checksum([os.fsencode(Path(path).absolute()), repr(args).encode()])
            source = _checksum(map(Path.read_bytes, sorted(Path(__file__).parent.glob("*.py"))))
    except OSError:  # an input that cannot be read fails in parse(), as it does without a cache
        stamp = None
    if not stamp:
        return parse()
    entry = Path(cache) / f"{kind}-{slot}-{source}{digest}.npz"
    try:
        return read_store(entry, kind, members, build)
    except (IoError, ParseError):  # no entry, or one damaged or foreign
        pass
    parsed = parse()
    try:
        if _stamp(path) == stamp and _digest(path) == digest:
            entry.parent.mkdir(parents=True, exist_ok=True)
            write_store(entry, members, values(parsed))
            for old in entry.parent.glob(f"{kind}-{slot}-*.npz"):
                if old != entry:
                    old.unlink()
    except (OSError, MemoryError):
        pass
    return parsed

"""Shared low-level helpers: slugs, canonical JSON, the record codec, digests,
atomic file writes."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

_SLUG_STRIP = re.compile(r"[^a-z0-9]+")

# Layout rules for a ``Record`` field, given as its ``metadata``. A field
# without one is written as it is, and is required on load when it has no
# default. A record class given as the rule marks a list of such records.
OMIT_NONE = {"record": "omit_none"}  # left out of the record when None
NOT_WRITTEN = {"record": "not_written"}  # never written, but read when given
REQUIRED = {"record": "required"}  # required on load although it has a default


class _Layout(NamedTuple):
    written: tuple[str, ...]  # in field order
    names: frozenset[str]  # every field
    omit_none: tuple[str, ...]
    nested: tuple[tuple[str, type], ...]  # (name, the record class of its items)
    required: tuple[str, ...]  # in field order
    converters: tuple[tuple[str, type], ...]  # (name, int or tuple)


@functools.cache
def _layout(cls: type) -> _Layout:
    fields = dataclasses.fields(cls)
    rules = {f.name: f.metadata.get("record") for f in fields}
    return _Layout(
        written=tuple(name for name, rule in rules.items() if rule != "not_written"),
        names=frozenset(rules),
        omit_none=tuple(name for name, rule in rules.items() if rule == "omit_none"),
        nested=tuple((name, rule) for name, rule in rules.items() if isinstance(rule, type)),
        required=tuple(
            f.name for f in fields
            if rules[f.name] == "required"
            or (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        ),
        # By the annotation's text: record modules postpone annotations.
        converters=tuple(
            (f.name, int if kind == "int" else tuple)
            for f in fields
            if (kind := str(f.type).partition("[")[0]) in ("int", "tuple")
        ),
    )


class Record:
    """A dataclass mixin: ``to_record`` and ``from_record`` take the on-disk
    layout, the fields in field order, from ``dataclasses.fields`` and the
    layout rule in each field's metadata."""

    def to_record(self) -> dict:
        layout = _layout(type(self))
        record = {name: getattr(self, name) for name in layout.written}
        for name in layout.omit_none:
            if record[name] is None:
                del record[name]
        for name, _item in layout.nested:
            record[name] = [value.to_record() for value in record[name]]
        return record

    @classmethod
    def check_record(cls, record: dict) -> None:
        """Raises what ``from_record`` raises for the record's own fields,
        without building the instance: ``KeyError`` naming the first
        required field, in field order, that the record lacks, then the
        error of an ``int`` or ``tuple[...]`` field whose value ``int()`` or
        ``tuple()`` refuses."""
        layout = _layout(cls)
        for name in layout.required:
            if name not in record:
                raise KeyError(name)
        for name, convert in layout.converters:
            if name in record and type(record[name]) is not convert:
                convert(record[name])

    @classmethod
    def from_record(cls, record: dict):
        """Raises what ``check_record`` raises. Keys that are not fields are
        ignored. A field annotated ``int`` or ``tuple[...]`` goes through
        ``int()`` or ``tuple()``."""
        cls.check_record(record)
        layout = _layout(cls)
        if not layout.names.issuperset(record):
            record = {key: value for key, value in record.items() if key in layout.names}
        instance = cls(**record)
        # object.__setattr__ also sets the fields of a frozen dataclass.
        for name, item in layout.nested:
            object.__setattr__(instance, name, [item.from_record(v) for v in getattr(instance, name)])
        for name, convert in layout.converters:
            value = getattr(instance, name)
            if type(value) is not convert:
                object.__setattr__(instance, name, convert(value))
        return instance


def slugify(text: str) -> str:
    """Lowercase, collapse non-alphanumerics to single hyphens."""
    slug = _SLUG_STRIP.sub("-", text.lower()).strip("-")
    return slug or "x"


def canonical_json(obj: Any) -> str:
    """Compact, key-sorted JSON: the one-line record encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# The scanner that ``json.loads`` runs once its wrappers are done.
_scan_json = json.JSONDecoder().scan_once


def json_objects(
    text: str, error: Callable[[int, str], Exception]
) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each line of ``text`` that is not blank.

    Lines end at "\\n" alone: ``str.splitlines()`` would also split at U+0085
    or U+2028, which JSON allows unescaped inside a string. A line that is
    not JSON raises ``error(line number, json.loads' message)``, and one that
    is JSON but not an object ``error(line number, "record is not an
    object")``.

    Each line decodes to what ``json.loads(line)`` returns, or fails as it
    fails. A line that starts with "{" and ends with "}" goes straight to
    ``json.loads``' scanner, and its value is taken only when the scan ends
    at the line's end: that is when ``json.loads``, which skips no
    whitespace on such a line, returns the same value. Every other line,
    and one the scan rejects, goes through ``json.loads`` itself.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line[:1] == "{" and line[-1:] == "}":
            try:
                record, end = _scan_json(line, 0)
            except (json.JSONDecodeError, StopIteration):
                end = -1
            if end == len(line):
                yield line_no, record
                continue
        elif not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(line_no, str(exc)) from None
        if not isinstance(record, dict):
            raise error(line_no, "record is not an object")
        yield line_no, record


def dump_json_doc(obj: Any) -> str:
    """Pretty, key-sorted JSON document with a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via temp file + rename in the same directory; durable on return."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def normalize_output_bytes(data: bytes) -> bytes:
    """Normalize text output for stability digests.

    Strips trailing whitespace per line and guarantees a single final
    newline. Non-UTF-8 payloads are digested raw.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return data
    lines = [line.rstrip() for line in text.splitlines()]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def walk_files(root: str | os.PathLike, exclude: Iterable[str] = ()) -> list[str]:
    """Relative POSIX names of all files under root, in path-component order.

    One ``os.scandir`` pass per directory. Regular files and symlinks to
    files are listed; symlinked directories are not descended into, and
    dangling links, FIFOs and other special files are skipped. Exclusions are
    relative POSIX paths; a trailing ``/`` is not required, and an entry
    excludes both the path itself and everything beneath it, pruned at its
    directory so that it is never scanned. A root that is not a directory
    has no files.
    """
    skip = frozenset(e.rstrip("/") for e in exclude)
    found: list[str] = []

    def walk(directory: str, prefix: str) -> None:
        try:
            with os.scandir(directory) as scan:
                entries = sorted(scan, key=lambda entry: entry.name)
        except PermissionError:
            return
        # Sorting each directory by name and descending in place gives the
        # order of the sorted component tuples: "a/b" comes before "a-b".
        for entry in entries:
            rel = prefix + entry.name
            if rel in skip:
                continue
            if entry.is_dir(follow_symlinks=False):
                walk(entry.path, rel + "/")
                continue
            try:
                if entry.is_file():
                    found.append(rel)
            except OSError:  # a symlink loop is not a file, as for Path.is_file
                pass

    top = os.fspath(root)
    if os.path.isdir(top):
        walk(top, "")
    return found


def read_bytes_at(root: str, rel: str) -> bytes:
    with open(os.path.join(root, rel), "rb") as handle:
        return handle.read()


def file_manifest(root: str | os.PathLike, exclude: Iterable[str] = ()) -> dict[str, str]:
    """The sha256 of each file under root, by relative name, in walk order."""
    top = os.fspath(root)
    return {rel: sha256_hex(read_bytes_at(top, rel)) for rel in walk_files(top, exclude)}


def digest_dir(root: str | os.PathLike, exclude: Iterable[str] = ()) -> str:
    """Content digest of a directory tree: each file's name and sha256, in walk order."""
    digest = hashlib.sha256()
    for rel, file_digest in file_manifest(root, exclude).items():
        digest.update(f"{rel}\x00{file_digest}\x00".encode("utf-8"))
    return digest.hexdigest()


def is_escaping_relpath(path: str) -> bool:
    """True when a declared relative path is absolute or climbs out of its root."""
    if not path or path.startswith("/") or path.startswith("\\"):
        return True
    pure = Path(path)
    if pure.is_absolute():
        return True
    depth = 0
    for part in pure.parts:
        if part == "..":
            depth -= 1
        elif part != ".":
            depth += 1
        if depth < 0:
            return True
    return depth <= 0

"""Log and catalog lines decode, line by line, to what ``json.loads`` gives them."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillmine import novelty
from skillmine.errors import CatalogReadError, CorruptRecordError
from skillmine.registry import SKILLS_FILE, SkillEntry, open_registry

# Inside strings: quotes, escapes, braces, and the line separators that
# str.splitlines() would split at although a record line goes on.
STRINGS = st.text(st.sampled_from('ab "\\{}[],:é\t\r\u2028\u2029\u0085'), max_size=6)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | STRINGS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(STRINGS, inner, max_size=2),
    max_leaves=4,
)
SPACE = st.sampled_from(["", " ", "\t", "\r", "  "])
# Three lines that are each corrupt but parse as three objects when joined.
SPLIT_AND_MERGED = ['{"a":1},{"b":2}', '{"x":1', '"y":2}']


def dropping(records, keys):
    """Records with, now and then, one of ``keys`` left out."""
    drop = st.sampled_from([None] * 6 + list(keys))
    return st.tuples(records, drop).map(
        lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]}
    )


def lines_of(records):
    """One line per element: a record, maybe padded or cut short, or a line
    that is blank, not an object, or not JSON."""
    encoded = records.map(lambda record: json.dumps(record, ensure_ascii=False))
    return st.lists(
        st.one_of(
            encoded,
            st.tuples(SPACE, encoded, SPACE).map("".join),
            st.tuples(encoded, st.integers(0, 40)).map(lambda pair: pair[0][: pair[1]]),
            VALUES.map(lambda value: json.dumps(value, ensure_ascii=False)),
            SPACE,
            st.sampled_from(SPLIT_AND_MERGED + ["{}", "{ }", "}{", "{", "{}}", "{{}"]),
        ),
        max_size=8,
    )


SKILL_LINES = lines_of(
    dropping(
        st.fixed_dictionaries(
            {
                "id": st.sampled_from(["s1", "s2"]),
                "name": STRINGS,
                "leaf_path": st.just("root/a/b"),
                "status": st.sampled_from(["untested", "verified"]),
            },
            optional={"provenance": st.lists(STRINGS, max_size=2), "note": VALUES},
        ),
        ("id", "name", "leaf_path", "status"),
    )
)
# Now and then a text field holds another JSON value.
TEXTS = st.one_of(STRINGS, STRINGS, STRINGS, VALUES)
CATALOG_LINES = lines_of(
    dropping(
        st.fixed_dictionaries(
            {"entry_ref": TEXTS, "task_description": TEXTS},
            optional={
                "scope_summary": TEXTS,
                "topic_path": STRINGS,
                "provenance": st.lists(STRINGS, max_size=2),
                "note": VALUES,
            },
        ),
        ("entry_ref", "task_description"),
    )
)


def loads_each(text):
    """``(line number, value)`` per non-blank line, or the first line's error."""
    values = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            return values, (line_no, str(exc))
        if not isinstance(value, dict):
            return values, (line_no, "record is not an object")
        values.append((line_no, value))
    return values, None


@settings(max_examples=150, deadline=None)
@given(lines=SKILL_LINES)
@example(lines=SPLIT_AND_MERGED)
@example(lines=['{"id":"s1","leaf_path":"root/a/b","name":"a\u2028b\u0085c","status":"untested"}'])
@example(lines=[' {"id":"s1","leaf_path":"root/a/b","name":"a","status":"untested"}\r', "5"])
def test_a_skill_log_decodes_as_json_loads_decodes_each_line(lines):
    text = "".join(line + "\n" for line in lines)
    records, error = loads_each(text)
    if error is None:
        for line_no, record in records:
            missing = [name for name in ("id", "name", "leaf_path", "status") if name not in record]
            if missing:
                error = (line_no, f"missing field '{missing[0]}'")
                break
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / SKILLS_FILE).write_text(text, encoding="utf-8")
        if error is not None:
            try:
                open_registry(root)
            except CorruptRecordError as exc:
                assert (exc.file, exc.line) == (SKILLS_FILE, error[0])
                assert str(exc) == f"corrupt record in {SKILLS_FILE}:{error[0]}: {error[1]}"
            else:
                raise AssertionError(f"line {error[0]} was accepted: {error[1]}")
            return
        registry = open_registry(root)
    histories: dict[str, list[dict]] = {}
    for _, record in records:
        histories.setdefault(record["id"], []).append(record)
    assert sorted(entry.id for entry in registry.skills()) == sorted(histories)
    for skill_id, history in histories.items():
        assert registry.skill_history(skill_id) == history
        assert registry.skill(skill_id) == SkillEntry.from_record(history[-1])


@settings(max_examples=150, deadline=None)
@given(lines=CATALOG_LINES)
@example(lines=SPLIT_AND_MERGED)
@example(lines=['{"entry_ref":"hub/1","task_description":"a\u2028b\u0085c"}', "null"])
@example(lines=['\r{"entry_ref": "a", "task_description": "t"}', "null"])
@example(lines=['{"entry_ref": "a", "task_description": "t", "provenance": 5}'])
@example(lines=['{"entry_ref": "a", "task_description": "t", "scope_summary": 5}'])
@example(lines=['{"entry_ref": 5, "task_description": "t"}'])
def test_a_catalog_decodes_as_json_loads_decodes_each_line(lines):
    text = "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hub.ndjson"
        path.write_bytes(text.encode("utf-8"))
        records, error = loads_each(text)
        expected = []
        for line_no, record in records:
            if "entry_ref" not in record or "task_description" not in record:
                error = (line_no, "entry_ref and task_description are required")
                break
            texts = (record["entry_ref"], record["task_description"], record.get("scope_summary", ""))
            if not all(isinstance(text, str) for text in texts):
                error = (line_no, "entry_ref, task_description and scope_summary must be strings")
                break
            expected.append(novelty.CatalogEntry("hub", *texts))
        if error is not None:
            try:
                novelty.load_catalog_snapshot(path)
            except CatalogReadError as exc:
                assert str(exc) == f"{path}:{error[0]}: {error[1]}"
            else:
                raise AssertionError(f"line {error[0]} was accepted: {error[1]}")
            return
        assert novelty.load_catalog_snapshot(path) == expected


def test_a_catalog_line_ends_at_a_newline_only(tmp_path):
    path = tmp_path / "hub.ndjson"
    entry = novelty.CatalogEntry("hub", "a", "t")

    # A "\r" between JSON tokens is whitespace, not the end of a line.
    path.write_bytes(b'{"entry_ref": "a",\r "task_description": "t"}\n')
    assert novelty.load_catalog_snapshot(path) == [entry]
    path.write_bytes(b'\r{"entry_ref": "a", "task_description": "t"}\nnull\n')
    with pytest.raises(CatalogReadError, match=r":2: record is not an object$"):
        novelty.load_catalog_snapshot(path)

    # A CRLF file still loads, its lines numbered as they are.
    path.write_bytes(b'{"entry_ref": "a", "task_description": "t"}\r\n\r\n' * 2 + b"5\r\n")
    with pytest.raises(CatalogReadError, match=r":5: record is not an object$"):
        novelty.load_catalog_snapshot(path)
    path.write_bytes(b'{"entry_ref": "a", "task_description": "t"}\r\n' * 2)
    assert novelty.load_catalog_snapshot(path) == [entry, entry]

"""Novelty review: keywords, catalog search, the decision ladder, write-back."""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillmine import novelty
from skillmine import tree as treemod
from skillmine.contracts import SkillContract, compile_package
from skillmine.errors import CatalogReadError, EmptyKeywordsError
from skillmine.registry import LEGAL_TRANSITIONS, SkillEntry, VerificationRecord, open_registry

from conftest import settle_library_clock


def contract(scope: str, steps: tuple[str, ...] = ()) -> SkillContract:
    return SkillContract(task_scope=scope, execution_steps=steps, provenance_links=("res-1",))


def entry(catalog_id, ref, task, scope=""):
    return novelty.CatalogEntry(
        catalog_id=catalog_id, entry_ref=ref, task_description=task, scope_summary=scope
    )


# -- keywords ---------------------------------------------------------------------


def test_derive_keywords_matches_hand_application():
    keywords = novelty.derive_keywords(contract("Annotate cell types in spatial data"))
    assert keywords.terms == (
        "annotate",
        "cell",
        "types",
        "spatial",
        "data",
        "annotate cell",
        "cell types",
        "types spatial",
        "spatial data",
    )


def test_derive_keywords_stop_words_only_is_an_error():
    with pytest.raises(EmptyKeywordsError):
        novelty.derive_keywords(contract("the and of which"))


def test_derive_keywords_deterministic():
    a = novelty.derive_keywords(contract("Align reads against a reference"))
    b = novelty.derive_keywords(contract("Align reads against a reference"))
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(
        st.sampled_from(["align", "reads", "cells", "label", "the", "graph", "of", "spatial"]),
        min_size=1,
        max_size=8,
    )
)
def test_keywords_pure_and_lowercase(words):
    text = " ".join(words)
    try:
        keywords = novelty.keywords_from_text(text)
    except EmptyKeywordsError:
        assert all(w in novelty.STOP_WORDS for w in words)
        return
    assert keywords == novelty.keywords_from_text(text)
    assert all(term == term.lower() for term in keywords.terms)


# -- search ------------------------------------------------------------------------


def test_exact_match_classifies_same_task_same_scope():
    candidate = contract("Dock molecules into binding pockets", ("prepare grid then dock",))
    keywords = novelty.derive_keywords(candidate)
    catalogs = {
        "hub": [
            entry(
                "hub",
                "hub/docker",
                "Dock molecules into binding pockets",
                "prepare grid then dock",
            )
        ]
    }
    matches = novelty.search_catalogs(
        catalogs,
        keywords,
        limit=5,
        candidate_task_text=candidate.task_scope,
        candidate_scope_text="prepare grid then dock",
    )
    assert len(matches) == 1
    assert matches[0].overlap == "same_task_same_scope"


def test_same_task_different_scope():
    candidate = contract(
        "Dock molecules into binding pockets", ("enumerate torsions with genetic search",)
    )
    keywords = novelty.derive_keywords(candidate)
    catalogs = {
        "hub": [
            entry(
                "hub",
                "hub/docker",
                "Dock molecules into binding pockets",
                "grid preparation followed by pose ranking heuristics",
            )
        ]
    }
    matches = novelty.search_catalogs(
        catalogs,
        keywords,
        limit=5,
        candidate_task_text=candidate.task_scope,
        scope_keywords=novelty.keywords_from_text("enumerate torsions with genetic search"),
        candidate_scope_text="enumerate torsions with genetic search",
    )
    assert matches[0].overlap == "same_task_diff_scope"


def test_empty_catalogs_empty_matches():
    keywords = novelty.keywords_from_text("count rows")
    assert novelty.search_catalogs({}, keywords, limit=5) == []


def test_unreadable_catalog_snapshot(tmp_path):
    with pytest.raises(CatalogReadError):
        novelty.load_catalog_snapshot(tmp_path / "absent.ndjson")


def test_catalog_snapshot_round_trip(fixtures_dir):
    entries = novelty.load_catalog_snapshot(fixtures_dir / "catalog_hub.ndjson")
    assert len(entries) == 20
    assert all(e.catalog_id == "catalog_hub" for e in entries)
    assert entries[0].entry_ref.startswith("hub/")


def test_catalog_texts_with_unicode_line_separators_round_trip(tmp_path):
    texts = ["align\u2028reads", "call\u2029variants", "count\u0085cells"]
    records = [
        {"entry_ref": f"hub/{n}", "task_description": text, "scope_summary": text[::-1]}
        for n, text in enumerate(texts)
    ]
    path = tmp_path / "hub.ndjson"
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    entries = novelty.load_catalog_snapshot(path)
    assert [e.task_description for e in entries] == texts
    assert [e.scope_summary for e in entries] == [text[::-1] for text in texts]


@pytest.mark.parametrize("line", ["5", '"x"', "null", "[1]"])
def test_a_catalog_line_that_is_not_an_object_is_a_read_error(tmp_path, line):
    path = tmp_path / "hub.ndjson"
    good = json.dumps({"entry_ref": "hub/1", "task_description": "align reads"})
    path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    with pytest.raises(CatalogReadError) as excinfo:
        novelty.load_catalog_snapshot(path)
    assert str(excinfo.value) == f"{path}:2: record is not an object"


# -- indexed search against the full scan ----------------------------------------------


def scan_search(catalogs, keywords, limit, task_text="", scope_keywords=None, scope_text=""):
    """Reference: classify every entry of every catalog, as the search did before indexing."""
    matches = []
    for catalog_id in sorted(catalogs):
        for item in catalogs[catalog_id]:
            overlap, score = novelty.classify_entry(
                item, keywords, task_text, scope_keywords, scope_text
            )
            if overlap == "none":
                continue
            matches.append(
                novelty.CatalogMatch(
                    catalog_id=item.catalog_id or catalog_id,
                    entry_ref=item.entry_ref,
                    overlap=overlap,
                    score=score,
                )
            )
    matches.sort(key=lambda m: (-m.score, m.catalog_id, m.entry_ref))
    return matches[:limit]


def keywords_or(text, default):
    try:
        return novelty.keywords_from_text(text)
    except EmptyKeywordsError:
        return default


WORDS = ["align", "reads", "cells", "label", "graph", "spatial", "Dock", "x1", "the", "of", "and"]
texts = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
catalog_entries = st.lists(
    st.builds(
        entry,
        st.sampled_from(["", "aaa", "local", "zzz"]),
        st.sampled_from(["r1", "r2", "r3"]),
        texts,
        texts,
    ),
    max_size=12,
)
CANDIDATE = "Align the READS, of spatial cells!"
# The catalog ids around "local" and the duplicate refs exercise the sort and the
# ties at the limit cut; "the of" is stop words only; the first entry equals the
# candidate after normalization, with empty scopes on both sides.
EDGES = {
    "aaa": [
        entry("aaa", "r1", "align reads of spatial cells"),
        entry("aaa", "r1", "the of"),
        entry("", "r2", "ALIGN reads spatial cells", "dock"),
    ],
    "local": [entry("local", "r1", "align reads spatial cells"), entry("local", "r3", "")],
    "zzz": [entry("zzz", "r1", "align reads spatial cells"), entry("aaa", "r2", "graph")],
}


@settings(max_examples=300, deadline=None)
@given(
    catalogs=st.dictionaries(st.sampled_from(["aaa", "hub", "local", "zzz"]), catalog_entries),
    task_text=texts,
    scope_text=texts,
    limit=st.integers(min_value=0, max_value=6),
    keyword_text=st.none() | texts,
    bigrams_only=st.booleans(),
)
@example(EDGES, CANDIDATE, "", 2, None, False)
@example(EDGES, "the of and", "", 5, None, False)
@example(EDGES, "graph", "dock", 4, "cells graph", True)
def test_indexed_search_equals_the_full_scan(
    catalogs, task_text, scope_text, limit, keyword_text, bigrams_only
):
    # A caller's keywords need not come from the task text, nor hold unigrams.
    keyword_source = task_text if keyword_text is None else keyword_text
    keywords = keywords_or(keyword_source, novelty.KeywordSet(terms=()))
    if bigrams_only:
        keywords = novelty.KeywordSet(terms=tuple(t for t in keywords.terms if " " in t))
    scope_keywords = keywords_or(scope_text, None)
    expected = scan_search(catalogs, keywords, limit, task_text, scope_keywords, scope_text)
    indexed = {k: novelty.CatalogIndex(v) for k, v in catalogs.items()}
    for given_catalogs in (catalogs, indexed):
        matches = novelty.search_catalogs(
            given_catalogs, keywords, limit, task_text, scope_keywords, scope_text
        )
        assert matches == expected


SCAN_TEXTS = st.lists(
    st.sampled_from(WORDS + ["İx", "ALIGNreads", "x1y", "a-b", "\n", "\u2028", "é", "--"]),
    max_size=6,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(SCAN_TEXTS, max_size=10),
    unigrams=st.sets(st.sampled_from(WORDS + ["align", "reads", "x", "a-b", "ix", "i"])),
)
@example(["the of", "", "--", "align", "align-reads"], {"align"})
def test_the_scan_shares_the_entries_the_index_shares(texts, unigrams):
    entries = [entry("hub", f"hub/{n}", text) for n, text in enumerate(texts)]
    assert novelty.scan_sharing(entries, unigrams) == novelty.CatalogIndex(entries).sharing(
        unigrams
    )


def test_indexed_search_classifies_only_entries_sharing_a_unigram(monkeypatch):
    rng = random.Random(20)
    vocabulary = [f"term{i}" for i in range(3000)]
    catalog = [
        entry("hub", f"hub/{i}", " ".join(rng.sample(vocabulary, 9)), "scope words")
        for i in range(20_000)
    ]
    index = novelty.CatalogIndex(catalog)
    task_text = "the term7 of term42 and term2999"
    keywords = novelty.keywords_from_text(task_text)
    sharing = [
        e for e in catalog if {"term7", "term42", "term2999"} & set(e.task_description.split())
    ]

    classified = []
    original = novelty.classify_entry

    def counting(item, *args):
        classified.append(item)
        return original(item, *args)

    monkeypatch.setattr(novelty, "classify_entry", counting)
    matches = novelty.search_catalogs({"hub": index}, keywords, 5, task_text)
    assert classified == sharing
    assert 0 < len(sharing) < 200
    monkeypatch.undo()
    assert matches == scan_search({"hub": catalog}, keywords, 5, task_text)


# -- ladder -------------------------------------------------------------------------


def test_zero_matches_is_novel():
    verdict = novelty.adjudicate(contract("Brand new capability"), [], skill_id="s1")
    assert verdict.decision == "novel"


def test_same_task_same_scope_is_redundant():
    match = novelty.CatalogMatch(
        catalog_id="hub",
        entry_ref="hub/x",
        overlap="same_task_same_scope",
    )
    verdict = novelty.adjudicate(contract("t"), [match], skill_id="s1")
    assert verdict.decision == "redundant"
    assert verdict.supporting_matches == (match,)


def test_provider_downgrades_merge_to_review():
    match = novelty.CatalogMatch(
        catalog_id="hub",
        entry_ref="hub/x",
        overlap="same_task_diff_scope",
    )
    verdict = novelty.adjudicate(
        contract("t"),
        [match],
        provider_response={"decision": "review", "matches": [], "rationale": "uncertain"},
        skill_id="s1",
    )
    assert verdict.decision == "review"


def test_provider_cannot_upgrade_redundant():
    match = novelty.CatalogMatch(
        catalog_id="hub",
        entry_ref="hub/x",
        overlap="same_task_same_scope",
    )
    verdict = novelty.adjudicate(
        contract("t"),
        [match],
        provider_response={"decision": "novel", "matches": [], "rationale": "looks fresh"},
        skill_id="s1",
    )
    assert verdict.decision == "redundant"


def oracle_decision(matches) -> str:
    """Brute-force restatement of the three ladder rules."""
    if any(m.overlap == "same_task_same_scope" for m in matches):
        return "redundant"
    if any(m.overlap == "same_task_diff_scope" for m in matches):
        return "merge"
    return "novel"


@settings(max_examples=80, deadline=None)
@given(
    overlaps=st.lists(
        st.sampled_from(["same_task_same_scope", "same_task_diff_scope", "related"]), max_size=6
    )
)
def test_ladder_is_total_and_matches_oracle(overlaps):
    matches = [
        novelty.CatalogMatch(
            catalog_id="hub",
            entry_ref=f"hub/e{i}",
            overlap=overlap,
        )
        for i, overlap in enumerate(overlaps)
    ]
    verdict = novelty.adjudicate(contract("anything useful"), matches, skill_id="s1")
    assert verdict.decision == oracle_decision(matches)


# -- the live local index ---------------------------------------------------------------


live_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "scope", "remove"]),
        st.sampled_from(["r1", "r2", "r3", "r4", "r5"]),
        texts,
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(ops=live_ops, queries=st.lists(texts, min_size=1, max_size=3))
def test_an_updated_index_searches_like_a_fresh_one(ops, queries):
    current: dict[str, novelty.CatalogEntry] = {}
    live = novelty.CatalogIndex([])
    for kind, ref, text in ops:
        before = dict(current)
        if kind == "put":
            current[ref] = entry("local", ref, text, text)
        elif kind == "scope" and ref in current:
            current[ref] = entry("local", ref, current[ref].task_description, text)
        else:
            current.pop(ref, None)
        entries = [current[r] for r in sorted(current)]
        in_place = before.keys() <= current.keys() and all(
            before[r].task_description == current[r].task_description for r in before
        )
        assert live.update(entries) == in_place
        if not in_place:
            live = novelty.CatalogIndex(entries)
        assert sorted(live.entries, key=lambda e: e.entry_ref) == entries
        fresh = novelty.CatalogIndex(entries)
        for query in queries:
            keywords = keywords_or(query, novelty.KeywordSet(terms=()))
            for limit in (1, 6):
                assert novelty.search_catalogs(
                    {"local": live}, keywords, limit, query, None, query
                ) == novelty.search_catalogs({"local": fresh}, keywords, limit, query, None, query)


# -- the local catalog's stat keys ------------------------------------------------------


def local_library(root, scopes):
    """A registry whose skills have compiled packages."""
    registry = open_registry(root)
    for skill_id, scope in scopes.items():
        compile_package(contract(scope, ("draw the grid",)), {}, root / "skills" / skill_id, name=skill_id)
        registry.upsert_skill(
            SkillEntry(id=skill_id, name=skill_id, leaf_path="root/alpha/one",
                       package_path=f"skills/{skill_id}")
        )
    return registry


def assert_cached_read_is_exact(registry, root, cache, probe_dir="sandbox"):
    entries = novelty.local_catalog_entries(registry, root, cache, root / probe_dir)
    assert entries == novelty.local_catalog_entries(registry, root)
    return entries


def test_cached_texts_see_an_edit_hidden_by_a_utime_restore(tmp_path):
    root = tmp_path / "library"
    registry = local_library(root, {"alpha": "Plot gene clusters on a grid"})
    settle_library_clock(root)
    cache = {}
    assert_cached_read_is_exact(registry, root, cache)
    assert cache["alpha"].trusted

    path = root / "skills" / "alpha" / "skill.json"
    stat = path.stat()
    path.write_bytes(path.read_bytes().replace(b"gene", b"cell"))  # same inode, same size
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    entries = assert_cached_read_is_exact(registry, root, cache)
    assert entries[0].task_description == "Plot cell clusters on a grid"


def test_cached_texts_see_a_same_size_file_renamed_over_the_old_one(tmp_path):
    root = tmp_path / "library"
    registry = local_library(root, {"alpha": "Plot gene clusters on a grid"})
    settle_library_clock(root)
    cache = {}
    assert_cached_read_is_exact(registry, root, cache)

    path = root / "skills" / "alpha" / "skill.json"
    stat = path.stat()
    swap = path.with_name("skill.json.new")
    swap.write_bytes(path.read_bytes().replace(b"gene", b"cell"))
    os.utime(swap, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(swap, path)
    assert path.stat().st_ino != stat.st_ino
    entries = assert_cached_read_is_exact(registry, root, cache)
    assert entries[0].task_description == "Plot cell clusters on a grid"


def test_cached_texts_see_edits_made_right_after_a_scan(tmp_path):
    """Same-size in-place edits straight after each scan: many land in the
    clock tick of the scan's read, where only the racy rule tells them apart."""
    root = tmp_path / "library"
    registry = local_library(
        root, {"alpha": "Plot gene clusters on a grid", "beta": "Align short reads to genomes"}
    )
    (root / "sandbox").mkdir()
    path = root / "skills" / "alpha" / "skill.json"
    original = path.read_bytes()
    cache = {}
    for i in range(200):
        entries = assert_cached_read_is_exact(registry, root, cache)
        assert entries[0].task_description.split()[1] == ("gene", "cell")[i % 2]
        with open(path, "r+b") as handle:
            handle.write(original.replace(b"gene", (b"cell", b"gene")[i % 2]))


def test_a_key_is_trusted_only_when_strictly_older_than_the_fence(tmp_path):
    root = tmp_path / "library"
    local_library(root, {"alpha": "Plot gene clusters on a grid"})
    path = root / "skills" / "alpha" / "skill.json"

    def trusted(fence):
        return novelty._read_local_text(str(root), "skills/alpha", None, fence).trusted

    stat = path.stat()
    newest = max(stat.st_ctime_ns, stat.st_mtime_ns)
    assert [trusted(f) for f in (None, newest, newest + 1)] == [False, False, True]
    # An mtime set ahead of the fence keeps the key untrusted.
    os.utime(path, ns=(stat.st_atime_ns, stat.st_ctime_ns + 10**12))
    assert not trusted(path.stat().st_ctime_ns + 1)


def test_without_a_probe_directory_no_key_is_trusted(tmp_path):
    root = tmp_path / "library"
    registry = local_library(root, {"alpha": "Plot gene clusters on a grid"})
    settle_library_clock(root)
    cache = {}
    assert_cached_read_is_exact(registry, root, cache, probe_dir="moved")
    assert not (root / "moved").exists() and not cache["alpha"].trusted
    novelty.local_catalog_entries(registry, root, cache)
    assert not cache["alpha"].trusted
    assert_cached_read_is_exact(registry, root, cache)
    assert cache["alpha"].trusted


LOCAL_IDS = ("alpha", "beta", "gamma")
LOCAL_TEXTS = ("Plot gene clusters on a grid", "Align short reads", "Estimate rotation periods")
local_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "status", "decision", "relocate", "provenance", "edit",
                         "settle", "reopen"]),
        st.sampled_from(LOCAL_IDS),
        st.sampled_from(LOCAL_TEXTS),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(ops=local_ops)
@example([("settle", "alpha", ""), ("edit", "alpha", LOCAL_TEXTS[1])])
@example([("settle", "alpha", ""), ("status", "alpha", "")])
@example([("settle", "alpha", ""), ("provenance", "alpha", "")])
def test_a_warm_local_catalog_equals_a_fresh_one(ops):
    """Registry mutations and skill.json edits between warm calls."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "library"
        registry = local_library(root, {"alpha": LOCAL_TEXTS[0]})
        (root / "sandbox").mkdir()
        cache = {}
        assert_cached_read_is_exact(registry, root, cache)
        for n, (op, skill_id, text) in enumerate(ops):
            package = root / "skills" / skill_id
            present = registry.has_skill(skill_id)
            if op == "add" and not present:
                compile_package(contract(text, ("draw the grid",)), {}, package, name=skill_id)
                registry.upsert_skill(
                    SkillEntry(id=skill_id, name=skill_id, leaf_path="root/alpha/one",
                               package_path=f"skills/{skill_id}")
                )
            elif op == "edit" and present:
                compile_package(contract(text, ("draw the grid",)), {}, package, name=skill_id)
            elif op == "settle":
                settle_library_clock(root)
            elif op == "reopen":
                registry = open_registry(root)
            elif present:
                current = registry.skill(skill_id)
                if op == "status":
                    targets = sorted(LEGAL_TRANSITIONS[current.status])
                    if targets:
                        registry.transition_skill(skill_id, targets[n % len(targets)], cycle=n)
                elif op == "decision":
                    registry.set_novelty_decision(skill_id, "novel", cycle=n)
                elif op == "relocate":
                    registry.relocate_skill(skill_id, f"root/alpha/leaf-{n}", cycle=n)
                else:
                    registry.upsert_skill(replace(current, provenance=[f"res-{n}"]))
            assert_cached_read_is_exact(registry, root, cache)


def test_a_warm_local_catalog_builds_only_the_entries_that_changed(tmp_path, monkeypatch):
    root = tmp_path / "library"
    registry = local_library(root, dict(zip(LOCAL_IDS, LOCAL_TEXTS)))
    settle_library_clock(root)
    cache = {}
    assert_cached_read_is_exact(registry, root, cache)

    built = []
    catalog_entry = novelty.CatalogEntry

    def counting(**fields):
        built.append(fields["entry_ref"])
        return catalog_entry(**fields)

    with monkeypatch.context() as patch:
        patch.setattr(novelty, "CatalogEntry", counting)
        warm = novelty.local_catalog_entries(registry, root, cache, root / "sandbox")
        assert built == []
        registry.set_novelty_decision("beta", "novel", cycle=2)
        novelty.local_catalog_entries(registry, root, cache, root / "sandbox")
        assert built == ["beta"]
    assert warm == novelty.local_catalog_entries(registry, root)


# -- write-back ----------------------------------------------------------------------


@pytest.fixture
def setup(tmp_path):
    tree = treemod.load_tree("root\n  alpha\n    one *\n    two *\n")
    registry = open_registry(tmp_path / "library")
    return tree, registry


def seed_verified(registry, skill_id, leaf="root/alpha/one", provenance=("res-a",)):
    registry.upsert_skill(
        SkillEntry(
            id=skill_id,
            name=skill_id,
            leaf_path=leaf,
            status="untested",
            package_path=f"skills/{skill_id}",
            provenance=list(provenance),
        )
    )
    registry.set_verification(
        skill_id,
        VerificationRecord(skill_id=skill_id, layer="execution", outcome="pass", attempt=1, cycle=1),
    )


def verdict_for(skill_id, decision, matches=()):
    return novelty.NoveltyVerdict(
        skill_id=skill_id, decision=decision, rationale="test", supporting_matches=tuple(matches)
    )


def test_apply_novel_links_leaf_and_keeps_verified(setup):
    tree, registry = setup
    seed_verified(registry, "fresh")
    count_before = len(registry.skills())
    tree = novelty.apply_verdict(tree, registry, verdict_for("fresh", "novel"), cycle=2)
    assert registry.skill("fresh").status == "verified"
    assert "fresh" in tree.node(treemod.parse_path("root/alpha/one")).linked_skills
    assert len(registry.skills()) == count_before
    assert registry.integrity_check(tree) == []


def test_apply_novel_inserts_missing_leaf(setup):
    tree, registry = setup
    seed_verified(registry, "pioneer", leaf="root/alpha/three")
    tree = novelty.apply_verdict(tree, registry, verdict_for("pioneer", "novel"), cycle=2)
    node = tree.node(treemod.parse_path("root/alpha/three"))
    assert node.kind == "leaf"
    assert node.coverage_flag == "covered"


def test_apply_redundant_removes_skill_tree_untouched(setup):
    tree, registry = setup
    seed_verified(registry, "copycat")
    before = dict(tree.nodes)
    tree = novelty.apply_verdict(tree, registry, verdict_for("copycat", "redundant"), cycle=2)
    assert registry.skill("copycat").status == "removed"
    assert dict(tree.nodes) == before


def test_apply_merge_unions_provenance_into_local_survivor(setup):
    tree, registry = setup
    seed_verified(registry, "older", provenance=("res-old",))
    tree = novelty.apply_verdict(tree, registry, verdict_for("older", "novel"), cycle=1)
    seed_verified(registry, "newer", provenance=("res-new",))
    match = novelty.CatalogMatch(
        catalog_id="local",
        entry_ref="older",
        overlap="same_task_diff_scope",
    )
    tree = novelty.apply_verdict(tree, registry, verdict_for("newer", "merge", [match]), cycle=2)
    assert registry.skill("newer").status == "removed"
    assert registry.skill("newer").merged_into == "older"
    assert registry.skill("older").provenance == ["res-new", "res-old"]
    assert registry.integrity_check(tree) == []


def test_apply_merge_with_external_match_keeps_candidate(setup):
    tree, registry = setup
    seed_verified(registry, "keeper")
    match = novelty.CatalogMatch(
        catalog_id="hub",
        entry_ref="https://hub.example.org/twin",
        overlap="same_task_diff_scope",
    )
    tree = novelty.apply_verdict(tree, registry, verdict_for("keeper", "merge", [match]), cycle=2)
    keeper = registry.skill("keeper")
    assert keeper.status == "verified"
    recorded = registry.resource_by_locator("https://hub.example.org/twin")
    assert recorded is not None
    assert recorded.id in keeper.provenance
    assert registry.integrity_check(tree) == []


def test_apply_review_zeroes_leaf_priority(setup):
    tree, registry = setup
    seed_verified(registry, "suspect")
    tree = novelty.apply_verdict(tree, registry, verdict_for("suspect", "review"), cycle=2)
    assert registry.skill("suspect").status == "review"
    assert tree.node(treemod.parse_path("root/alpha/one")).status == "review"

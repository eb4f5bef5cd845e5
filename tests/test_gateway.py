"""Provider gateway: rendering, schemas, mock scripting, live transport."""

from __future__ import annotations

import json
import urllib.error

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillmine.errors import (
    GatewayError,
    MissingContextFieldError,
    MockMissError,
    NotASingleDocumentError,
    SchemaViolationError,
    TransportError,
)
from skillmine.gateway import (
    EffortProfile,
    Gateway,
    LiveProvider,
    MockProvider,
    STAGE_KINDS,
    invoke,
    render_prompt,
    serialize_response,
    validate_response,
)

from conftest import write_mock


# -- render_prompt ---------------------------------------------------------------


def test_tree_check_bundle_carries_cycle_controller_constraints():
    bundle = render_prompt("tree_check", {"repository_summary": "skills=0"})
    assert "reuse existing repository scripts" in bundle.system_text
    assert bundle.input_fields["repository_summary"] == "skills=0"


def test_parallel_leaf_template_names_followup_fields():
    bundle = render_prompt(
        "parallel_leaf_stage",
        {"target_leaf": "a/b", "artifact_directory": "/tmp/x"},
    )
    for token in ("repo_changes", "blockers", "next_steps"):
        assert token in bundle.system_text


def test_design_skill_requires_task_prompt():
    with pytest.raises(MissingContextFieldError) as excinfo:
        render_prompt("design_skill", {"repository_summary": "x"})
    assert excinfo.value.field == "task_prompt"
    assert excinfo.value.stage == "design_skill"


def test_rendering_is_pure():
    context = {"repository_summary": "skills=3", "extra": "y"}
    assert render_prompt("tree_check", context) == render_prompt("tree_check", context)


# -- effort profile ---------------------------------------------------------------


def test_default_profile_high_effort_only_for_resource_search():
    profile = EffortProfile.default()
    assert profile.entry("resource_search")[1] == "high"
    others = [s for s in STAGE_KINDS if s != "resource_search"]
    assert all(profile.entry(s)[1] == "medium" for s in others)


def test_profile_must_be_total():
    with pytest.raises(GatewayError):
        EffortProfile(assignments={"tree_check": ("m", "high")})


# -- validate_response -------------------------------------------------------------


def test_validates_well_formed_skill_build():
    raw = json.dumps(
        {"candidates": [{"name": "x", "task_scope": "do x", "artifacts": {"scripts/x.py": "pass"}}]}
    )
    response = validate_response("skill_build", raw)
    assert response.fields["candidates"][0]["name"] == "x"
    assert response.unknown_fields == ()


def test_leading_prose_rejected():
    with pytest.raises(NotASingleDocumentError):
        validate_response("skill_build", 'Sure! Here is the JSON: {"candidates": []}')


def test_trailing_content_rejected():
    with pytest.raises(NotASingleDocumentError):
        validate_response("tree_check", '{"focus_leaves": [], "rationale": ""} extra')


def test_parallel_leaf_missing_blockers_names_field():
    raw = json.dumps({"repo_changes": [], "next_steps": []})
    with pytest.raises(SchemaViolationError) as excinfo:
        validate_response("parallel_leaf_stage", raw)
    assert excinfo.value.field == "blockers"


def test_unknown_fields_preserved_but_flagged():
    raw = json.dumps({"focus_leaves": ["a/b"], "rationale": "r", "surprise": 1})
    response = validate_response("tree_check", raw)
    assert response.fields["surprise"] == 1
    assert response.unknown_fields == ("surprise",)


@settings(max_examples=25, deadline=None)
@given(
    leaves=st.lists(st.text(alphabet="ab/", min_size=1, max_size=8), max_size=4),
    rationale=st.text(max_size=40),
)
def test_validate_after_serialize_is_identity(leaves, rationale):
    raw = json.dumps({"focus_leaves": leaves, "rationale": rationale})
    response = validate_response("tree_check", raw)
    again = validate_response("tree_check", serialize_response(response))
    assert dict(again.fields) == dict(response.fields)


MINIMAL_VALID = {
    "tree_check": {"focus_leaves": ["a/b"], "rationale": "r"},
    "resource_search": {
        "resources": [
            {"kind": "paper", "locator": "https://x", "leaf_path": "a/b", "authority_rank": 1}
        ]
    },
    "skill_build": {"candidates": [{"name": "n", "task_scope": "t", "artifacts": {}}]},
    "skill_test": {"verdict": "pass", "log_summary": "ok"},
    "refresh": {"registry_updates": [], "tree_updates": []},
    "design_skill": {"contract": {"task_scope": "t"}, "resources_used": [], "test_plan": "p"},
    "layer1_fix": {"diagnosis": "d", "edits": [{"path": "a.py", "content": "x"}], "retest": True},
    "layer2_benchmark": {"with_skill_score": 0.9, "baseline_score": 0.5, "notes": "n"},
    "layer2_optimize": {"actions": [], "rebenchmark": True},
    "novelty_check": {"matches": [], "decision": "novel", "rationale": "r"},
    "parallel_leaf_stage": {"repo_changes": [], "blockers": [], "next_steps": []},
}


@pytest.mark.parametrize("stage", sorted(MINIMAL_VALID))
def test_every_stage_schema_accepts_its_minimal_document(stage):
    response = validate_response(stage, json.dumps(MINIMAL_VALID[stage]))
    assert response.stage == stage
    assert response.unknown_fields == ()


@pytest.mark.parametrize("stage", sorted(MINIMAL_VALID))
def test_every_stage_schema_names_its_first_missing_field(stage):
    document = dict(MINIMAL_VALID[stage])
    removed = next(iter(document))
    del document[removed]
    with pytest.raises(SchemaViolationError) as excinfo:
        validate_response(stage, json.dumps(document))
    assert excinfo.value.stage == stage


# -- mock provider ------------------------------------------------------------------


def test_mock_returns_scripted_response_verbatim(tmp_path):
    script = tmp_path / "script"
    payload = {"focus_leaves": ["a/b"], "rationale": "scripted"}
    write_mock(script, "tree_check", "leaf-l", 1, payload)
    provider = MockProvider(script)
    gateway = Gateway(provider)
    response = gateway.call("tree_check", {"repository_summary": "s"}, key="leaf-l")
    assert dict(response.fields) == payload


def test_mock_miss_is_an_error(tmp_path):
    script = tmp_path / "script"
    script.mkdir()
    provider = MockProvider(script)
    gateway = Gateway(provider)
    with pytest.raises(MockMissError):
        gateway.call("tree_check", {"repository_summary": "s"}, key="absent")


def test_mock_occurrence_counting_scripts_repair_loops(tmp_path):
    script = tmp_path / "script"
    write_mock(script, "skill_test", "s1", 1, {"verdict": "fail", "log_summary": "first"})
    write_mock(script, "skill_test", "s1", 2, {"verdict": "pass", "log_summary": "second"})
    gateway = Gateway(MockProvider(script))
    first = gateway.call("skill_test", {"target_skill": "s1"}, key="s1")
    second = gateway.call("skill_test", {"target_skill": "s1"}, key="s1")
    third = gateway.call("skill_test", {"target_skill": "s1"}, key="s1")
    assert first.fields["verdict"] == "fail"
    assert second.fields["verdict"] == "pass"
    # occurrences beyond the script repeat the last response
    assert third.fields["verdict"] == "pass"


def test_mock_counters_export_import(tmp_path):
    script = tmp_path / "script"
    write_mock(script, "skill_test", "s1", 1, {"verdict": "fail", "log_summary": "a"})
    write_mock(script, "skill_test", "s1", 2, {"verdict": "pass", "log_summary": "b"})
    first = Gateway(MockProvider(script))
    first.call("skill_test", {"target_skill": "s1"}, key="s1")
    counters = first.export_counters()

    resumed = Gateway(MockProvider(script))
    resumed.import_counters(counters)
    response = resumed.call("skill_test", {"target_skill": "s1"}, key="s1")
    assert response.fields["verdict"] == "pass"


# -- live transport ----------------------------------------------------------------


def test_live_transport_retries_then_surfaces_attempt_count():
    calls = []

    def failing_transport(url, payload, headers, timeout):
        calls.append(url)
        raise ConnectionError("boom")

    naps = []
    provider = LiveProvider(
        url="https://provider.example/api",
        key="k",
        transport=failing_transport,
        sleep=naps.append,
    )
    bundle = render_prompt("tree_check", {"repository_summary": "s"})
    with pytest.raises(TransportError) as excinfo:
        invoke(provider, bundle, ("model", "medium"))
    assert excinfo.value.attempts == 3
    assert len(calls) == 3
    assert naps == [1.0, 2.0]


def http_error(code):
    return urllib.error.HTTPError("https://provider.example/api", code, "status", {}, None)


@pytest.mark.parametrize("code", [500, 503, 429])
def test_live_transport_retries_server_errors_and_throttling(code):
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(url)
        if len(calls) < 3:
            raise http_error(code)
        return "recovered"

    naps = []
    provider = LiveProvider(url="https://provider.example/api", transport=transport, sleep=naps.append)
    bundle = render_prompt("tree_check", {"repository_summary": "s"})
    assert invoke(provider, bundle, ("model", "medium")) == "recovered"
    assert len(calls) == 3
    assert naps == [1.0, 2.0]


@pytest.mark.parametrize("error", [http_error(400), http_error(401), ValueError("bad body")])
def test_live_transport_raises_non_transient_errors_at_once(error):
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(url)
        raise error

    naps = []
    provider = LiveProvider(url="https://provider.example/api", transport=transport, sleep=naps.append)
    bundle = render_prompt("tree_check", {"repository_summary": "s"})
    with pytest.raises(TransportError) as excinfo:
        invoke(provider, bundle, ("model", "medium"))
    assert excinfo.value.attempts == 1
    assert excinfo.value.__cause__ is error
    assert len(calls) == 1
    assert naps == []


def test_live_transport_success_extracts_chat_content():
    def transport(url, payload, headers, timeout):
        assert headers["Authorization"] == "Bearer secret"
        body = json.loads(payload)
        assert body["effort"] == "high"
        return json.dumps(
            {"choices": [{"message": {"content": '{"focus_leaves": [], "rationale": "ok"}'}}]}
        )

    provider = LiveProvider(url="https://provider.example/api", key="secret", transport=transport)
    bundle = render_prompt("tree_check", {"repository_summary": "s"})
    raw = invoke(provider, bundle, ("model", "high"))
    response = validate_response("tree_check", raw)
    assert response.fields["rationale"] == "ok"


def test_live_budget_caps_concurrent_callers():
    import threading
    import time

    active = 0
    peak = 0
    gate = threading.Lock()

    def slow_transport(url, payload, headers, timeout):
        nonlocal active, peak
        with gate:
            active += 1
            peak = max(peak, active)
        time.sleep(0.02)
        with gate:
            active -= 1
        return '{"choices": [{"message": {"content": "{}"}}]}'

    provider = LiveProvider(
        url="https://provider.example/api",
        key="k",
        transport=slow_transport,
        max_in_flight=2,
    )
    bundle = render_prompt("refresh", {"repository_summary": "s"})
    threads = [
        threading.Thread(target=invoke, args=(provider, bundle, ("m", "medium")))
        for _ in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert peak <= 2


def test_schema_error_is_not_retried():
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(url)
        return "not json at all"

    provider = LiveProvider(url="https://provider.example/api", key="k", transport=transport)
    bundle = render_prompt("tree_check", {"repository_summary": "s"})
    raw = invoke(provider, bundle, ("model", "medium"))
    with pytest.raises(NotASingleDocumentError):
        validate_response("tree_check", raw)
    assert len(calls) == 1

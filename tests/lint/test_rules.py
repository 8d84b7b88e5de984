"""Per-rule fixture tests: every fixture's findings match its markers.

One good and one bad fixture per rule; the assertion is exact — the multiset
of ``(line, rule-id)`` pairs the linter reports must equal what the fixture's
``# expect:`` markers promise.  Good fixtures promise nothing, so any finding
against them is a regression (a rule got too eager).
"""

from __future__ import annotations

import pytest

from tools.lint import build_linter

from tests.lint.conftest import FIXTURES, REPO_ROOT, load_fixture

ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.py"))

#: rule id -> the bad fixture that exercises it (sanity-pins corpus coverage).
RULE_FIXTURES = {
    "counter-registry": "counter_registry_bad",
    "dynamic-counter-key": "dynamic_key_bad",
    "unseeded-random": "unseeded_random_bad",
    "wallclock-time": "wallclock_bad",
    "set-iteration-order": "set_order_bad",
    "writer-pairing": "writer_pairing_bad",
    "except-swallow": "except_swallow_bad",
    "api-docstring": "api_docstring_bad",
    "api-knob": "api_knob_bad",
}


def _lint_fixture(name):
    rel, source, expected = load_fixture(name)
    result = build_linter(REPO_ROOT).lint_sources({rel: source})
    return result, expected


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_findings_match_expect_markers(name):
    result, expected = _lint_fixture(name)
    got = sorted((d.line, d.rule) for d in result.findings)
    assert got == expected, "\n".join(d.format() for d in result.findings)


def test_corpus_covers_every_rule():
    """Each checker rule has a bad fixture whose markers actually use it."""
    for rule, name in RULE_FIXTURES.items():
        _, _, expected = load_fixture(name)
        assert any(r == rule for _, r in expected), (rule, name)


def test_suppression_is_counted_and_attributed():
    """The suppressed fixture lints clean but shows up in the directive books."""
    result, expected = _lint_fixture("suppressed_ok")
    assert expected == []
    assert result.findings == []
    assert result.directives == 1
    assert [d.rule for d in result.suppressed] == ["unseeded-random"]


def test_unused_suppression_is_flagged():
    # Assembled at runtime so this test file does not add a directive to the
    # real tree's own suppression count.
    directive = "# repro-lint: " + "disable=unseeded-random"
    src = f'"""Clean module."""\n\nX = 1  {directive}\n'
    result = build_linter(REPO_ROOT).lint_sources(
        {"src/repro/core/example.py": src})
    assert [(d.line, d.rule) for d in result.findings] == [(3, "unused-suppression")]
    assert result.directives == 1
    assert result.suppressed == []


def test_good_fixtures_exist_for_every_bad_one():
    """Corpus hygiene: each rule family ships a good twin (suppressed_ok and
    the two single-sided api fixtures are the documented exceptions)."""
    singles = {"dynamic_key_bad", "api_knob_bad", "suppressed_ok"}
    for name in ALL_FIXTURES:
        if name.endswith("_bad") and name not in singles:
            assert name[:-4] + "_good" in ALL_FIXTURES, name

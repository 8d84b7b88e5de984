"""Zero-baseline and seeding tests for repro-lint.

Two halves of the acceptance contract:

* the shipped tree lints clean — zero findings, and the inline suppression
  allowlist is pinned to exactly ``MAX_SUPPRESSIONS`` directives on the four
  documented shard-layer forwarding handlers;
* seeding any bad fixture from the corpus into a scratch checkout makes the
  CLI exit non-zero and name the right rule at the right line.
"""

from __future__ import annotations

import re

import pytest

from tools.lint import DEFAULT_PATHS, MAX_SUPPRESSIONS, build_linter
from tools.lint.cli import main
from tools.lint.registry import REGISTRY_REL
from tools.lint.rules.public_api import KNOB_DOCS, PUBLIC_API

from tests.lint.conftest import FIXTURES, REPO_ROOT, load_fixture

_FINDING_RE = re.compile(r"^(\S+?):(\d+):(\d+): ([a-z][a-z0-9-]*) ")

BAD_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*_bad.py"))


@pytest.fixture(scope="module")
def baseline():
    """One full-tree lint shared by the baseline assertions."""
    return build_linter(REPO_ROOT).lint_paths(list(DEFAULT_PATHS))


def test_tree_lints_clean(baseline):
    assert baseline.findings == [], "\n".join(
        d.format() for d in baseline.findings)


def test_public_api_paths_exist():
    """The public-api rule only sees modules listed in PUBLIC_API; a listed
    module that moved would drop out of the clean baseline unnoticed."""
    for rel in PUBLIC_API:
        assert (REPO_ROOT / rel).is_file(), rel


def test_knob_classes_are_on_the_surface():
    """The api-knob check only runs on classes listed in PUBLIC_API."""
    surface = {name for names in PUBLIC_API.values() for name in names}
    for cls in KNOB_DOCS:
        assert cls in surface, cls


def test_suppression_allowlist_pinned(baseline):
    """Exactly the four documented shard-layer except-swallow forwards — one
    directive each, nothing else.  Adding a suppression means growing this
    list *and* MAX_SUPPRESSIONS in the same commit (see docs/lint.md)."""
    assert baseline.directives == MAX_SUPPRESSIONS == 4
    assert len(baseline.suppressed) == 4
    assert all(d.rule == "except-swallow" for d in baseline.suppressed)
    assert sorted({d.path for d in baseline.suppressed}) == [
        "src/repro/shard/router.py",
        "src/repro/shard/worker.py",
    ]


def test_cli_zero_baseline_and_dead_counter_report(capsys):
    """The CI command: exit 0, no findings, and no dead registry entries."""
    status = main(["--root", str(REPO_ROOT), "--dead-counters",
                   *DEFAULT_PATHS])
    out = capsys.readouterr().out
    assert status == 0
    assert "0 finding(s)" in out
    assert "every registered counter is recorded somewhere" in out


def test_cli_list_rules(capsys):
    status = main(["--root", str(REPO_ROOT), "--list-rules"])
    out = capsys.readouterr().out
    assert status == 0
    for rule in ("counter-registry", "numpy-isolation", "unseeded-random",
                 "writer-pairing", "api-docstring"):
        assert rule in out


# --------------------------------------------------------------------- #
# Seeding: planting a corpus violation must fail the CLI loudly.
# --------------------------------------------------------------------- #
def _seed_tree(tmp_path, rel, source):
    """A scratch checkout: the real counter registry plus one seeded file."""
    registry = (REPO_ROOT / REGISTRY_REL).read_text(encoding="utf-8")
    for dest_rel, text in ((REGISTRY_REL, registry), (rel, source)):
        dest = tmp_path / dest_rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name", BAD_FIXTURES)
def test_seeded_violation_fails_with_rule_and_line(tmp_path, capsys, name):
    rel, source, expected = load_fixture(name)
    assert expected, f"{name}: a *_bad fixture must expect at least one finding"
    _seed_tree(tmp_path, rel, source)
    status = main(["--root", str(tmp_path), rel])
    out = capsys.readouterr().out
    assert status == 1
    got = sorted(
        (int(m.group(2)), m.group(4))
        for m in (_FINDING_RE.match(line) for line in out.splitlines())
        if m and m.group(1) == rel)
    assert got == expected, out


def test_seeded_violation_fails_a_full_src_scan(tmp_path, capsys):
    """The acceptance criterion verbatim: a violation anywhere under src/
    flips the whole-tree scan non-zero with the offending rule id."""
    rel, source, expected = load_fixture("unseeded_random_bad")
    _seed_tree(tmp_path, rel, source)
    status = main(["--root", str(tmp_path), "src"])
    out = capsys.readouterr().out
    assert status == 1
    line, rule = expected[0]
    assert any(l.startswith(f"{rel}:{line}:") and rule in l
               for l in out.splitlines()), out


def test_suppression_cap_enforced(tmp_path, capsys):
    """A directive over the cap fails the run even with zero findings."""
    rel, source, _ = load_fixture("suppressed_ok")
    _seed_tree(tmp_path, rel, source)
    status = main(["--root", str(tmp_path), "--max-suppressions", "0", rel])
    captured = capsys.readouterr()
    assert status == 1
    assert "suppression cap exceeded" in captured.err


def test_missing_registry_is_a_hard_error(tmp_path, capsys):
    """No registry, no lint: exit 2 so CI cannot silently skip the rules."""
    (tmp_path / "src").mkdir()
    status = main(["--root", str(tmp_path), "src"])
    assert status == 2
    assert "cannot load the counter registry" in capsys.readouterr().err

"""Tests for the documentation surface: link integrity and checker behavior."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402


def test_repo_markdown_has_no_dangling_links():
    assert check_links.main(["check_links.py", str(REPO_ROOT)]) == 0


def test_checker_detects_dangling_file_links(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/page.md) [broken](docs/missing.md) "
        "[external](https://example.com/gone)\n"
    )
    (docs / "page.md").write_text("# Page\n\n[up](../README.md)\n")
    failures = list(check_links.check_file(tmp_path / "README.md", tmp_path))
    assert len(failures) == 1
    assert failures[0][1] == "docs/missing.md"


def test_checker_detects_dangling_anchors(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Real Heading\n\n[good](#real-heading) [bad](#nope)\n")
    failures = list(check_links.check_file(page, tmp_path))
    assert [target for _, target, _ in failures] == ["#nope"]


def test_checker_rejects_escaping_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("[out](../../etc/passwd)\n")
    failures = list(check_links.check_file(page, tmp_path))
    assert failures and failures[0][2] == "escapes the repository"


def test_mkdocs_nav_targets_exist():
    """Every page named in mkdocs.yml must exist under docs/ (stdlib parse:
    the nav entries are the `key: value.md` lines)."""
    import re

    text = (REPO_ROOT / "mkdocs.yml").read_text()
    pages = re.findall(r":\s*([\w/.-]+\.md)\s*$", text, re.MULTILINE)
    assert pages, "mkdocs.yml lists no pages?"
    for page in pages:
        assert (REPO_ROOT / "docs" / page).exists(), f"docs/{page} is missing"


def test_ci_workflow_runs_commands_only():
    """Every pass/fail check is a test, a bench gate or an e2ebench check in
    the repo, so the CI workflow carries no inline script of its own."""
    import re

    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "<<" not in workflow, "heredoc in ci.yml"
    assert not re.search(r"\bpython3? -(?:c\b|\s)", workflow), "inline python in ci.yml"

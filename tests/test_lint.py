"""Tests for ``tools/lint_invariants.py``: the repo invariant linter.

One seeded violation per rule (intern-bypass, identity-literal, protocol)
plus the accept-path: the real ``src/repro`` tree must lint clean.  That
test is the lint gate: CI runs it with the rest of the tier-1 suite.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_invariants  # noqa: E402


def _lint_source(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_invariants.lint_paths([path])


def test_real_tree_is_clean():
    assert lint_invariants.lint_paths([REPO_ROOT / "src" / "repro"]) == []


def test_intern_bypass_via_object_new(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def sneak(values):
            vector = object.__new__(IntVector)  # bypasses the intern table
            return vector
        """,
    )
    assert [v.rule for v in violations] == ["intern-bypass"]
    assert "IntVector" in violations[0].message


def test_intern_bypass_via_class_new(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def sneak(symbol):
            return Term.__new__(Term, symbol, ())
        """,
    )
    assert [v.rule for v in violations] == ["intern-bypass"]


def test_intern_bypass_allowed_in_defining_module(tmp_path):
    # The canonical _wrap path itself lives in utils/vectors.py and must
    # stay allowed to call object.__new__.
    module = tmp_path / "utils"
    module.mkdir()
    (module / "vectors.py").write_text(
        "def _wrap(parts):\n    return object.__new__(IntVector)\n"
    )
    assert lint_invariants.lint_paths([module]) == []


def test_identity_comparison_with_literal(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def bad(count):
            return count is 3
        """,
    )
    assert [v.rule for v in violations] == ["identity-literal"]


def test_identity_comparison_with_sentinels_is_allowed(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        def good(value, other):
            return value is None or value is True or value is not other
        """,
    )
    assert violations == []


def test_registered_engine_missing_protocol_method(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        @register_engine("broken")
        class Broken:
            def check(self, problem, examples):
                return None
        """,
    )
    assert [v.rule for v in violations] == ["protocol"]
    assert "solve" in violations[0].message


def test_registered_engine_inheriting_only_solve_lacks_check(tmp_path):
    # The shape of repro.baselines.engines: the base defines ``solve`` and
    # each registered engine its own ``check``.
    violations = _lint_source(
        tmp_path,
        """
        class Base:
            def solve(self, problem, initial_examples=None):
                return None

        @register_engine("checkless")
        class Checkless(Base):
            pass
        """,
    )
    assert [v.rule for v in violations] == ["protocol"]
    assert violations[0].message.endswith("missing required method(s): check")


def test_registered_domain_missing_protocol_method(tmp_path):
    violations = _lint_source(
        tmp_path,
        """
        @register_domain("halfbaked")
        class HalfBaked:
            def bottom(self, sort, dimension):
                return None

            def join(self, left, right):
                return left

            def equal(self, left, right):
                return True

            def transfer(self, production, args, dimension):
                return None
        """,
    )
    assert [v.rule for v in violations] == ["protocol"]
    assert "check" in violations[0].message


def test_protocol_methods_resolve_through_cross_file_inheritance(tmp_path):
    # Base class in one file, registered subclass in another — the linter
    # must resolve inheritance by class name across the whole linted set,
    # mirroring how ExampleVectorDomain (domains/base.py) satisfies most of
    # the protocol for IntervalDomain (domains/interval.py).
    (tmp_path / "base.py").write_text(
        textwrap.dedent(
            """
            class VectorBase:
                def bottom(self, sort, dimension):
                    return None

                def join(self, left, right):
                    return left

                def equal(self, left, right):
                    return True

                def transfer(self, production, args, dimension):
                    return None
            """
        )
    )
    (tmp_path / "concrete.py").write_text(
        textwrap.dedent(
            """
            @register_domain("derived")
            class Derived(VectorBase):
                def check(self, problem, examples, domain=None):
                    return None
            """
        )
    )
    assert lint_invariants.lint_paths([tmp_path]) == []


def test_main_reports_violation_count(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("x = (1 is 1)\n")
    status = lint_invariants.main([str(tmp_path)])
    captured = capsys.readouterr()
    assert status == 1
    assert "identity-literal" in captured.out
    assert "1 invariant violation(s)" in captured.out

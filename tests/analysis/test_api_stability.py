"""The ``api-stability`` rule: frozen/slotted/schema-versioned wire
types, constructed only inside the facade package."""

GOOD_TYPES = """
    from dataclasses import dataclass

    API_SCHEMA = 1

    @dataclass(frozen=True, slots=True)
    class PingRequest:
        schema: int = API_SCHEMA
"""


def _messages(result):
    return [v.message for v in result.violations]


class TestTypeDefinitions:
    def test_clean_types_module_passes(self, lint):
        result = lint(GOOD_TYPES, rules=["api-stability"], filename="api/types.py")
        assert not result.violations

    def test_mutable_dataclass_flagged(self, lint):
        result = lint(
            """
            from dataclasses import dataclass

            API_SCHEMA = 1

            @dataclass
            class LooseRequest:
                schema: int = API_SCHEMA
            """,
            rules=["api-stability"],
            filename="api/types.py",
        )
        assert any("frozen=True, slots=True" in m for m in _messages(result))

    def test_missing_schema_field_flagged(self, lint):
        result = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class VersionlessRequest:
                value: int = 0
            """,
            rules=["api-stability"],
            filename="api/types.py",
        )
        assert any("schema: int = API_SCHEMA" in m for m in _messages(result))

    def test_plain_class_flagged(self, lint):
        result = lint(
            """
            class NotARecord:
                pass
            """,
            rules=["api-stability"],
            filename="api/types.py",
        )
        assert any("must be a frozen dataclass" in m for m in _messages(result))


class TestConstructionBoundary:
    def test_direct_construction_outside_facade_flagged(self, lint):
        result = lint(
            """
            from repro.api.types import PingRequest

            def make():
                return PingRequest()
            """,
            rules=["api-stability"],
            filename="server/daemon.py",
            extra={"api/types.py": GOOD_TYPES},
        )
        assert any("through the repro.api facade" in m for m in _messages(result))

    def test_attribute_style_construction_flagged(self, lint):
        result = lint(
            """
            from repro.api import types

            def make():
                return types.PingRequest()
            """,
            rules=["api-stability"],
            filename="server/daemon.py",
            extra={"api/types.py": GOOD_TYPES},
        )
        assert any("through the repro.api facade" in m for m in _messages(result))

    def test_construction_inside_facade_allowed(self, lint):
        result = lint(
            """
            from repro.api.types import PingRequest

            def ping_request():
                return PingRequest()
            """,
            rules=["api-stability"],
            filename="api/facade.py",
            extra={"api/types.py": GOOD_TYPES},
        )
        assert not result.violations

    def test_unrelated_calls_untouched(self, lint):
        result = lint(
            """
            def compute(build_cache):
                return build_cache()
            """,
            rules=["api-stability"],
            filename="server/daemon.py",
            extra={"api/types.py": GOOD_TYPES},
        )
        assert not result.violations


def test_real_tree_is_clean_under_the_rule():
    """The shipped repro package satisfies its own api-stability rule."""
    from pathlib import Path

    from repro.analysis.engine import run_lint
    from repro.analysis.rules import all_rules

    import repro

    package = Path(repro.__file__).parent
    root = package.parent.parent
    result = run_lint([package], root=root, rules=all_rules(["api-stability"]))
    assert not result.violations, [v.render() for v in result.violations]

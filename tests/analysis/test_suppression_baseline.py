"""Inline ``# simlint: off`` suppressions."""

TIMED = """
    import time

    def stamp():
        return time.time(){comment}
"""


class TestSuppression:
    def test_named_suppression_silences_the_rule(self, lint):
        result = lint(
            TIMED.format(comment="  # simlint: off=determinism -- CI stamp"),
            rules=["determinism"],
        )
        assert result.ok
        assert result.suppressed == 1

    def test_bare_off_silences_every_rule(self, lint):
        result = lint(
            TIMED.format(comment="  # simlint: off"),
            rules=["determinism"],
        )
        assert result.ok
        assert result.suppressed == 1

    def test_other_rule_suppression_does_not_apply(self, lint):
        result = lint(
            TIMED.format(comment="  # simlint: off=slots"),
            rules=["determinism"],
        )
        assert [v.rule for v in result.violations] == ["determinism"]
        assert result.suppressed == 0

    def test_suppression_only_covers_its_line(self, lint):
        result = lint(
            """
            import time  # simlint: off=determinism

            def stamp():
                return time.time()
            """,
            rules=["determinism"],
        )
        assert [v.rule for v in result.violations] == ["determinism"]


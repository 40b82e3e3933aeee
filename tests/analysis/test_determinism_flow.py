"""Rule ``determinism-flow``: entropy taint reaching export surfaces."""

from dataclasses import replace

from tests.analysis.conftest import STRICT

CONFIG = STRICT  # determinism_allow=() : no sanitizer modules


def run(lint, source, **kwargs):
    return lint(source, rules=["determinism-flow"], config=CONFIG, **kwargs)


class TestStatsExportSink:
    def test_wallclock_into_flatten_stats(self, lint):
        result = run(lint, """
            import time
            from repro.harness.export import flatten_stats

            def emit(stats):
                stats["run.stamp"] = time.time()
                flatten_stats(stats)
        """)
        assert len(result.violations) == 1
        assert "wallclock" in result.violations[0].message

    def test_taint_through_helper_and_to_dict_return(self, lint):
        result = run(lint, """
            import os

            def token():
                return os.urandom(8).hex()

            class Result:
                def to_dict(self):
                    return {"run.token": token()}
        """)
        assert len(result.violations) == 1
        assert "entropy" in result.violations[0].message

    def test_plain_config_values_are_clean(self, lint):
        result = run(lint, """
            from repro.harness.export import flatten_stats

            def emit(config, stats):
                stats["sim.seed"] = config.seed
                flatten_stats(stats)
        """)
        assert result.ok

    def test_local_named_like_a_module_is_not_a_source(self, lint):
        # ``time`` here is a parameter, not the module: only an imported
        # head resolves to a module path.
        result = run(lint, """
            class Result:
                def to_dict(self, time=None, os=None):
                    return {"t": time.time(), "pid": os.getpid()}
        """)
        assert result.ok


class TestWireEncodeSink:
    def test_object_address_into_wire(self, lint):
        result = run(lint, """
            from repro.api.wire import to_wire

            def encode(request):
                tag = id(request)
                return to_wire({"tag": tag})
        """)
        assert len(result.violations) == 1
        assert "object-address" in result.violations[0].message


class TestCheckpointSink:
    def test_tainted_result_kwarg_flagged(self, lint):
        result = run(lint, """
            import time

            def save(ckpt, cell):
                ckpt.append(cell, result=time.time_ns())
        """)
        assert len(result.violations) == 1

    def test_wall_s_metadata_kwarg_is_allowed(self, lint):
        # Deliberate design: checkpoint timing metadata (wall_s) may be
        # nondeterministic; only the replayed result payload must not be.
        result = run(lint, """
            import time

            def save(ckpt, cell, value):
                ckpt.append(cell, result=value, wall_s=time.time())
        """)
        assert result.ok


class TestSanitizers:
    def test_allowlisted_module_is_a_sanitizer(self, lint):
        result = lint(
            """
            from obs.clock import stamp
            from repro.harness.export import flatten_stats

            def emit(stats):
                stats["run.stamp"] = stamp()
                flatten_stats(stats)
            """,
            rules=["determinism-flow"],
            config=replace(STRICT, determinism_allow=("obs/*",)),
            extra={
                "obs/clock.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
            },
        )
        assert result.ok

    def test_sorted_set_iteration_is_clean(self, lint):
        tainted = run(lint, """
            from repro.harness.export import flatten_stats

            def emit(names):
                flatten_stats(set(names))
        """)
        clean = run(lint, """
            from repro.harness.export import flatten_stats

            def emit(names):
                flatten_stats(sorted(set(names)))
        """)
        assert len(tainted.violations) == 1
        assert "set-order" in tainted.violations[0].message
        assert clean.ok

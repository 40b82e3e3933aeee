"""The dataflow layer itself: facts, call graph, taint fixpoint.

The rules are tested end to end elsewhere; these tests pin the engine
primitives they stand on — call resolution across modules/classes/typed
attributes, deferred-edge semantics, and interprocedural taint
summaries.
"""

import ast
import textwrap

from repro.analysis.flow import (
    CallGraph,
    ModuleFacts,
    SinkSpec,
    TaintAnalysis,
    extract_facts,
    module_name_for,
)


def facts(source: str, rel: str = "pkg/mod.py") -> ModuleFacts:
    tree = ast.parse(textwrap.dedent(source))
    return extract_facts(tree, rel, rel)


def graph(**modules: str) -> CallGraph:
    return CallGraph([facts(src, rel) for rel, src in modules.items()])


class TestFacts:
    def test_module_name_strips_src_and_init(self):
        assert module_name_for("src/repro/dram/bank.py") == "repro.dram.bank"
        assert module_name_for("src/repro/api/__init__.py") == "repro.api"
        assert module_name_for("tools/gen.py") == "tools.gen"

    def test_function_facts_record_calls_and_sources(self):
        mod = facts(
            """
            import time

            def helper():
                return time.time()
            """
        )
        helper = next(f for f in mod.functions if f.name == "helper")
        assert any(c.resolved == "time.time" for c in helper.calls)


class TestCallGraph:
    def test_cross_module_resolution_via_from_import(self):
        g = graph(**{
            "pkg/a.py": """
                from pkg.b import helper

                def caller():
                    return helper()
                """,
            "pkg/b.py": """
                def helper():
                    return 1
                """,
        })
        reached = g.reach("pkg.a:caller")
        assert "pkg.b:helper" in reached

    def test_self_method_and_typed_attribute_resolution(self):
        g = graph(**{
            "pkg/m.py": """
                class Store:
                    def scan(self):
                        return 1

                class Server:
                    def __init__(self):
                        self.store = Store()

                    def direct(self):
                        return self.helper()

                    def helper(self):
                        return self.store.scan()
                """,
        })
        reached = g.reach("pkg.m:Server.direct")
        assert "pkg.m:Server.helper" in reached
        assert "pkg.m:Store.scan" in reached

    def test_executor_handoff_is_deferred_not_a_stack_call(self):
        g = graph(**{
            "pkg/m.py": """
                import asyncio

                def blocking():
                    return 1

                async def root():
                    await asyncio.to_thread(blocking)
                """,
        })
        assert "pkg.m:blocking" not in g.reach("pkg.m:root")
        assert "pkg.m:blocking" in g.reach("pkg.m:root", deferred=True)

    def test_path_is_reportable(self):
        g = graph(**{
            "pkg/a.py": """
                from pkg.b import middle

                def root():
                    return middle()
                """,
            "pkg/b.py": """
                def middle():
                    return leaf()

                def leaf():
                    return 1
                """,
        })
        parent = g.reach("pkg.a:root")
        edges = g.path("pkg.a:root", "pkg.b:leaf", parent)
        assert edges
        trail = g.describe_path(edges)
        assert "middle" in trail and "pkg/b.py" in trail


SINKS = [
    SinkSpec(
        kind="export",
        resolved=frozenset({"pkg.export.flatten"}),
    )
]


def taint(sanitizers=(), **modules: str) -> list:
    analysis = TaintAnalysis(graph(**modules), SINKS, sanitizer_globs=tuple(sanitizers))
    return analysis.findings()


class TestTaint:
    def test_direct_source_to_sink(self):
        findings = taint(**{
            "pkg/m.py": """
                import time
                from pkg.export import flatten

                def emit():
                    stamp = time.time()
                    flatten(stamp)
                """,
        })
        assert len(findings) == 1
        assert findings[0].sink_kind == "export"
        assert "wallclock" in findings[0].kinds

    def test_taint_flows_through_helper_return(self):
        findings = taint(**{
            "pkg/m.py": """
                import time
                from pkg.export import flatten

                def now_label(prefix):
                    return prefix + str(time.time())

                def emit():
                    flatten(now_label("run-"))
                """,
        })
        assert [f.sink_kind for f in findings] == ["export"]

    def test_taint_flows_through_parameter_into_callee_sink(self):
        findings = taint(**{
            "pkg/a.py": """
                import time
                from pkg.b import write_out

                def emit():
                    write_out(time.time())
                """,
            "pkg/b.py": """
                from pkg.export import flatten

                def write_out(value):
                    flatten(value)
                """,
        })
        assert findings, "param -> callee sink flow must be reported"
        assert all("wallclock" in f.kinds for f in findings)

    def test_sanitizer_module_kills_taint(self):
        findings = taint(
            sanitizers=("pkg/clock.py",),
            **{
                "pkg/clock.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
                "pkg/m.py": """
                    from pkg.clock import stamp
                    from pkg.export import flatten

                    def emit():
                        flatten(stamp())
                    """,
            },
        )
        assert findings == []

    def test_sorted_neutralizes_set_order(self):
        tainted = taint(**{
            "pkg/m.py": """
                from pkg.export import flatten

                def emit(names):
                    bucket = set(names)
                    flatten(bucket)
                """,
        })
        clean = taint(**{
            "pkg/m.py": """
                from pkg.export import flatten

                def emit(names):
                    bucket = sorted(set(names))
                    flatten(bucket)
                """,
        })
        assert [f.kinds for f in tainted] == [("set-order",)]
        assert clean == []

    def test_untainted_value_is_silent(self):
        assert taint(**{
            "pkg/m.py": """
                from pkg.export import flatten

                def emit(config):
                    flatten(config.rows)
                """,
        }) == []

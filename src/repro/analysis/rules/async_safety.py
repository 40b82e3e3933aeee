"""Rule ``async-safety`` — the event loop must never block.

The daemon (:mod:`repro.server`) multiplexes every client over one
asyncio loop; one blocking call inside a coroutine stalls *all*
connections, heartbeats and drain handling at once — the exact failure
the PR 8 resilience layer exists to prevent. Syntactic per-function
checks cannot see a ``time.sleep`` buried two helpers down, so this
rule walks the project call graph (:mod:`repro.analysis.flow`):

* **blocking reachability** — from every ``async def`` defined in the
  configured async scope (``server/*``, ``api/client.py``), walk
  direct (non-deferred) call edges; a known blocking sink —
  ``time.sleep``, ``subprocess.*``, sync socket/url I/O, builtin
  ``open`` — anywhere in the closure is reported at the first hop out
  of the coroutine, with the full chain in the message. References
  handed to ``asyncio.to_thread`` / ``run_in_executor`` / executor
  ``submit`` are *deferred* edges and are not followed: that is the
  sanctioned way to run blocking code.

* **unguarded future waits** — ``pool.submit(...).result()`` (directly
  chained or through a local name) inside a coroutine blocks the loop
  until a worker finishes; await the future instead.

* **unawaited coroutines** — a call to a project ``async def`` whose
  result is discarded without ``await`` never runs and hides errors.

* **shared-state mutation off the loop** — a method handed to an
  executor (``to_thread(self._flush)``) that assigns an attribute some
  coroutine of the same class also assigns is a data race between the
  loop thread and the worker thread.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.model import ProjectModel, SourceFile, Violation
from repro.analysis.rules import Rule, register_rule

#: Resolved call targets that block the calling thread.
BLOCKING_SINKS: dict[str, str] = {
    "time.sleep": "time.sleep() blocks the loop; use asyncio.sleep",
    "subprocess.run": "subprocess.run blocks until the child exits",
    "subprocess.call": "subprocess.call blocks until the child exits",
    "subprocess.check_call": "subprocess.check_call blocks",
    "subprocess.check_output": "subprocess.check_output blocks",
    "subprocess.getoutput": "subprocess.getoutput blocks",
    "subprocess.Popen.communicate": "communicate() blocks",
    "socket.create_connection": "sync socket connect blocks",
    "urllib.request.urlopen": "sync HTTP fetch blocks",
    "os.system": "os.system blocks until the command exits",
    "open": "sync file open/IO blocks; use asyncio.to_thread",
}

_EXECUTOR_TAILS = {"to_thread", "run_in_executor", "submit", "Thread"}


@register_rule
class AsyncSafetyRule(Rule):
    name = "async-safety"
    description = (
        "no blocking call reachable from an async def; no unawaited "
        "coroutines; no executor-thread mutation of loop-shared state"
    )
    rationale = (
        "The repro daemon serves every client from a single asyncio "
        "loop. A blocking call (time.sleep, sync I/O, subprocess, an "
        "unguarded Future.result()) anywhere in a coroutine's call "
        "closure freezes all connections at once, defeating deadlines "
        "and graceful drain. Blocking work must be pushed through "
        "asyncio.to_thread / run_in_executor — those edges are "
        "recognized and not followed. Coroutines whose result is "
        "discarded without await never execute; attributes written "
        "both by coroutines and executor-thread helpers race."
    )
    example_bad = """\
import time

async def handle(request):
    time.sleep(0.1)  # blocks every connection on the loop
    return request
"""
    example_good = """\
import asyncio

async def handle(request):
    await asyncio.sleep(0.1)
    return request
"""

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        graph = project.graph
        scope = project.config.async_scope
        roots = [
            key
            for key, fn in graph.functions.items()
            if fn.is_async and _in_scope(graph.facts_of[key], scope)
        ]
        yield from self._blocking(project, graph, roots)
        yield from self._unawaited(project, graph)
        yield from self._executor_state(project, graph, scope)

    # -- blocking reachability --------------------------------------------
    def _blocking(self, project, graph, roots) -> Iterator[Violation]:
        for root in roots:
            fn = graph.functions[root]
            mod = graph.facts_of[root]
            # direct blocking calls and future-waits inside the coroutine
            for lineno, why in _blocking_sites(fn):
                yield self._violation(
                    project, mod.rel, lineno,
                    f"async def {fn.qualname} calls a blocking operation: {why}",
                )
            # transitive: first hop out of the coroutine carries the report
            parent = graph.reach(root)
            seen_first_hops: set[tuple[str, int]] = set()
            for target in parent:
                tfn = graph.functions[target]
                sites = list(_blocking_sites(tfn))
                if not sites:
                    continue
                path = graph.path(root, target, parent)
                if not path:
                    continue
                first = path[0]
                hop_id = (first.target, first.lineno)
                if hop_id in seen_first_hops:
                    continue
                seen_first_hops.add(hop_id)
                lineno, why = sites[0]
                trail = graph.describe_path(path)
                yield self._violation(
                    project, first.rel, first.lineno,
                    f"async def {fn.qualname} reaches a blocking operation "
                    f"({why} at {graph.facts_of[target].rel}:{lineno}) "
                    f"via {trail}; route it through asyncio.to_thread or "
                    "run_in_executor",
                )

    # -- unawaited coroutines ---------------------------------------------
    def _unawaited(self, project, graph) -> Iterator[Violation]:
        for key, fn in graph.functions.items():
            mod = graph.facts_of[key]
            for call in fn.calls:
                if call.awaited or not call.discarded:
                    continue
                target = graph.resolve_project(mod, fn, call)
                if target is None or not graph.functions[target].is_async:
                    continue
                name = graph.functions[target].qualname
                yield self._violation(
                    project, mod.rel, call.lineno,
                    f"coroutine {name}() is never awaited (its body will "
                    "not run); await it or wrap it in "
                    "asyncio.create_task(...)",
                )

    # -- executor-thread mutation of loop-shared attributes ---------------
    def _executor_state(self, project, graph, scope) -> Iterator[Violation]:
        for mod in graph.modules.values():
            if not _in_scope(mod, scope):
                continue
            # attrs assigned by coroutine methods, per class
            async_attrs: dict[str, dict[str, int]] = {}
            for fn in mod.functions:
                if fn.is_async and fn.cls is not None:
                    table = async_attrs.setdefault(fn.cls, {})
                    for attr, lineno, _ in fn.self_attr_assigns:
                        table.setdefault(attr, lineno)
            if not async_attrs:
                continue
            # methods handed to executors anywhere in this module
            entries: set[str] = set()
            for fn in mod.functions:
                for call in fn.calls:
                    if call.chain[-1] not in _EXECUTOR_TAILS:
                        continue
                    for ref in call.func_refs:
                        key = graph.resolve_ref(mod, fn, ref)
                        if key is not None:
                            entries.add(key)
            for key in sorted(entries):
                entry = graph.functions[key]
                if entry.cls is None or entry.is_async:
                    continue
                shared = async_attrs.get(entry.cls, {})
                for attr, lineno, _ in entry.self_attr_assigns:
                    if attr in shared:
                        yield self._violation(
                            project, graph.facts_of[key].rel, lineno,
                            f"{entry.qualname} runs on an executor thread "
                            f"but assigns self.{attr}, which coroutine code "
                            f"of {entry.cls} also assigns (line "
                            f"{shared[attr]}): loop/worker data race — "
                            "marshal the update back onto the loop with "
                            "call_soon_threadsafe",
                        )

    # -- helpers -----------------------------------------------------------
    def _violation(self, project, rel: str, lineno: int,
                   message: str) -> Violation:
        source = project.source_for(rel)
        if source is not None:
            return source.violation(self.name, lineno, message)
        return Violation(self.name, rel, lineno, 0, message)


def _in_scope(mod, scope: tuple[str, ...]) -> bool:
    from fnmatch import fnmatch

    return any(fnmatch(mod.rel, g) or fnmatch(mod.pkgrel, g) for g in scope)


def _blocking_sites(fn) -> Iterator[tuple[int, str]]:
    """(lineno, why) for blocking operations in one function body."""
    submit_futures = {
        target
        for target, deps in fn.assigns
        if any(
            d.startswith("c:") and fn.calls[int(d[2:])].chain[-1] == "submit"
            for d in deps
        )
    }
    for call in fn.calls:
        why = BLOCKING_SINKS.get(call.resolved or "")
        if why is not None:
            yield call.lineno, why
            continue
        if call.chain[-1] == "result" and not call.arg_deps:
            if call.base_call is not None and \
                    fn.calls[call.base_call].chain[-1] == "submit":
                yield call.lineno, (
                    "submit(...).result() blocks until the worker "
                    "finishes; await asyncio.wrap_future(...) instead"
                )
            elif len(call.chain) == 2 and call.chain[0] in submit_futures:
                yield call.lineno, (
                    f"{call.chain[0]}.result() waits on an executor future "
                    "synchronously; await asyncio.wrap_future(...) instead"
                )

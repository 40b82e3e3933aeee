"""Rule ``fork-safety`` — worker submissions must not capture live handles.

``harness.parallel.run_grid`` ships each cell to a worker process by
pickling the worker function and its cells. An open file, a connected
socket or an asyncio event loop captured by that closure either fails
to pickle at submission time (the lucky case) or — under fork — arrives
in the child as a *shared* descriptor, where two processes interleave
writes on one file offset or one socket. The grid engine's crash
attribution (PR 3) can tell you a worker died, but not why; this rule
rejects the capture statically.

Detected submission points: ``run_grid(worker, cells)`` (resolved
through imports) and ``submit``/``map`` on a ``ProcessPoolExecutor``
assigned in the same function. For each, the rule checks:

* the worker argument's dataflow deps (a lambda's deps are its
  captures) for names bound to handle factories — ``open()``,
  ``socket.socket``/``create_connection``, asyncio loop getters;
* a worker passed by *name* (module-level or nested ``def``): its free
  variables against handle-bound names in the enclosing scope;
* a worker passed as ``self.method``: the class's ``self.<attr>``
  assignments for handle factories (pickling ``self`` ships them all);
* every other argument for directly-passed handles.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.model import ProjectModel, Violation
from repro.analysis.rules import Rule, register_rule

HANDLE_FACTORIES: dict[str, str] = {
    "open": "open file",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "asyncio.get_event_loop": "asyncio event loop",
    "asyncio.get_running_loop": "asyncio event loop",
    "asyncio.new_event_loop": "asyncio event loop",
}

_GRID_ENTRIES = {"repro.harness.parallel.run_grid"}
_POOL_FACTORIES = {"ProcessPoolExecutor", "Pool"}


@register_rule
class ForkSafetyRule(Rule):
    name = "fork-safety"
    description = (
        "run_grid / process-pool submissions may not capture open "
        "files, sockets or event loops"
    )
    rationale = (
        "Grid cells are pickled into worker processes. A captured live "
        "handle (open file, socket, event loop) either breaks pickling "
        "at submission time or, under fork, becomes a descriptor "
        "shared between parent and child — interleaved writes, "
        "double-closed sockets, a loop running in two processes. "
        "Workers must be module-level functions over plain-data cells; "
        "handles are opened inside the worker."
    )
    example_bad = """\
from repro.harness.parallel import run_grid

def campaign(cells):
    log = open("grid.log", "w")
    return run_grid(lambda cell: log.write(str(cell)), cells)
"""
    example_good = """\
from repro.harness.parallel import run_grid

def worker(cell):
    return cell * 2

def campaign(cells):
    return run_grid(worker, cells)
"""

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        graph = project.graph
        for mod in graph.modules.values():
            module_handles = _handle_names(
                next(f for f in mod.functions if f.qualname == "<module>")
            )
            class_handle_attrs = _class_handle_attrs(mod)
            for fn in mod.functions:
                handles = dict(module_handles) if fn.qualname != "<module>" \
                    else module_handles
                handles.update(_handle_names(fn))
                pools = _pool_names(fn)
                for call in fn.calls:
                    site = self._submission_kind(graph, mod, fn, call, pools)
                    if site is None:
                        continue
                    yield from self._check_submission(
                        project, graph, mod, fn, call, site,
                        handles, class_handle_attrs,
                    )

    # -- submission-site detection ----------------------------------------
    def _submission_kind(self, graph, mod, fn, call, pools) -> str | None:
        target = graph.resolve_project(mod, fn, call)
        resolved = call.resolved or ""
        if resolved in _GRID_ENTRIES:
            return "run_grid"
        if target is not None and target.endswith(":run_grid"):
            return "run_grid"
        tail = call.chain[-1]
        if tail in ("submit", "map") and len(call.chain) == 2 \
                and call.chain[0] in pools:
            return f"pool.{tail}"
        return None

    # -- capture checks ----------------------------------------------------
    def _check_submission(self, project, graph, mod, fn, call, site,
                          handles, class_handle_attrs) -> Iterator[Violation]:
        refs = list(call.func_refs)
        for i, deps in enumerate(call.arg_deps):
            role = "worker function" if i == 0 else f"argument {i}"
            # dataflow deps: direct handles and lambda captures
            for dep in deps:
                if dep.startswith("n:") and dep[2:] in handles:
                    yield self._violation(
                        project, mod.rel, call.lineno,
                        f"{site} {role} captures {dep[2:]!r}, a live "
                        f"{handles[dep[2:]]} — workers must open handles "
                        "themselves, cells carry plain data",
                    )
                elif dep.startswith("c:"):
                    inner = fn.calls[int(dep[2:])]
                    kind = HANDLE_FACTORIES.get(inner.resolved or "")
                    if kind is not None:
                        yield self._violation(
                            project, mod.rel, call.lineno,
                            f"{site} {role} is a freshly-created {kind}; "
                            "it cannot cross the process boundary",
                        )
        # worker passed by reference: free variables / bound self
        if refs:
            worker = refs[0]
            if "." in worker:
                head, _, meth = worker.partition(".")
                if head == "self" and fn.cls is not None:
                    for attr, kind in class_handle_attrs.get(fn.cls, {}).items():
                        yield self._violation(
                            project, mod.rel, call.lineno,
                            f"{site} worker self.{meth} is a bound method of "
                            f"{fn.cls}, whose self.{attr} holds a live "
                            f"{kind}; pickling self ships the handle — use "
                            "a module-level worker over plain cells",
                        )
            else:
                key = graph.resolve_ref(mod, fn, worker)
                if key is not None:
                    free = graph.functions[key].free_names
                    for name in free:
                        if name in handles:
                            yield self._violation(
                                project, mod.rel, call.lineno,
                                f"{site} worker {worker!r} closes over "
                                f"{name!r}, a live {handles[name]} — open "
                                "it inside the worker instead",
                            )

    def _violation(self, project, rel, lineno, message) -> Violation:
        source = project.source_for(rel)
        if source is not None:
            return source.violation(self.name, lineno, message)
        return Violation(self.name, rel, lineno, 0, message)


def _handle_names(fn) -> dict[str, str]:
    """Names in ``fn`` bound (possibly transitively) to a live handle."""
    out: dict[str, str] = {}
    for _ in range(3):
        changed = False
        for target, deps in fn.assigns:
            if target in out:
                continue
            for dep in deps:
                kind = None
                if dep.startswith("c:"):
                    call = fn.calls[int(dep[2:])]
                    kind = HANDLE_FACTORIES.get(call.resolved or "")
                elif dep.startswith("n:") and dep[2:] in out:
                    kind = out[dep[2:]]
                if kind is not None:
                    out[target] = kind
                    changed = True
                    break
        if not changed:
            break
    return out


def _pool_names(fn) -> set[str]:
    """Local names bound to a process-pool instance."""
    out: set[str] = set()
    for target, deps in fn.assigns:
        for dep in deps:
            if dep.startswith("c:"):
                call = fn.calls[int(dep[2:])]
                if call.chain[-1] in _POOL_FACTORIES:
                    out.add(target)
    return out


def _class_handle_attrs(mod) -> dict[str, dict[str, str]]:
    """class -> {attr: handle kind} for self.<attr> = <handle factory>()."""
    out: dict[str, dict[str, str]] = {}
    for fn in mod.functions:
        if fn.cls is None:
            continue
        for attr, _lineno, deps in fn.self_attr_assigns:
            for dep in deps:
                if dep.startswith("c:"):
                    call = fn.calls[int(dep[2:])]
                    kind = HANDLE_FACTORIES.get(call.resolved or "")
                    if kind is not None:
                        out.setdefault(fn.cls, {})[attr] = kind
    return out

"""Whole-program dataflow for simlint v2: facts, call graph, taint.

Three layers, each feeding the next:

* **Fact extraction** — one AST pass per module produces a
  :class:`ModuleFacts`: every function (including a synthetic
  ``<module>`` body), its calls, a condensed def-use skeleton
  (assignments and returns as lists of *dependencies*), ambient-entropy
  source events, each class's base names, and an import table that
  resolves relative imports.

* **Call graph** — :class:`CallGraph` resolves each call fact to a
  project function where it can (``from repro.x import f`` member
  imports, same-module names, ``self.method`` through the class
  hierarchy, ``alias.f`` module attributes); a call it cannot resolve
  (``time.sleep``) makes no edge. Function *references*
  passed as arguments (``to_thread(self._flush)``) become ``deferred``
  edges: the callee runs, but not on the caller's stack — the
  async-safety rule must not follow them, the fork-safety rule must.

* **Taint engine** — :class:`TaintAnalysis` runs the per-function
  def-use skeletons to a fixpoint over call summaries: which ambient
  sources a function's return value carries, which parameters flow to
  its return, and which parameters reach a sink somewhere below it.
  Sanitizers (calls into the determinism allowlist, ``sorted()`` for
  order taints) cut flows; everything external passes taint through
  conservatively (``round(time.time())`` is still wall-clock).

A dependency is typed: a ``str`` is a local name, an ``int`` the
result of the function's call with that index, and a one-tuple
``(kind,)`` an ambient source of that kind. Parameters are just names;
the summary computation seeds each with its index.

The analysis is intentionally name-based and flow-insensitive inside a
function: it trades soundness-in-the-limit for zero configuration and
speed (the whole repro tree analyzes in well under a second), and every
rule built on it reports *why* with the full call chain so a false
positive is cheap to judge and suppress.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.model import matches_any, simple_base_name

__all__ = [
    "CallFact",
    "FunctionFact",
    "ModuleFacts",
    "attr_chain",
    "extract_facts",
    "module_name_for",
    "resolve_with_imports",
    "CallGraph",
    "TaintAnalysis",
    "SOURCE_KINDS",
    "ORDER_KINDS",
]

# ---------------------------------------------------------------------------
# ambient-entropy sources (resolved dotted name -> taint kind)
# ---------------------------------------------------------------------------
SOURCE_KINDS: dict[str, str] = {
    "time.time": "wallclock",
    "time.time_ns": "wallclock",
    "time.localtime": "wallclock",
    "time.gmtime": "wallclock",
    "time.ctime": "wallclock",
    "time.asctime": "wallclock",
    "time.strftime": "wallclock",
    "datetime.now": "wallclock",
    "datetime.utcnow": "wallclock",
    "datetime.today": "wallclock",
    "datetime.datetime.now": "wallclock",
    "datetime.datetime.utcnow": "wallclock",
    "datetime.date.today": "wallclock",
    "os.urandom": "entropy",
    "uuid.uuid1": "entropy",
    "uuid.uuid4": "entropy",
    "secrets.token_bytes": "entropy",
    "secrets.token_hex": "entropy",
    "secrets.randbits": "entropy",
    "id": "object-address",
    "hash": "hash-seed",
    "os.getpid": "process-id",
    "os.getenv": "environment",
    "os.environ.get": "environment",
}

#: Kinds that sorted() neutralizes (iteration-order, not value, taint).
ORDER_KINDS = {"set-order"}

_EXECUTOR_WRAPPERS = {
    "to_thread", "run_in_executor", "submit", "map",
    "create_task", "ensure_future", "Thread", "Timer", "start_new_thread",
}


# ---------------------------------------------------------------------------
# facts dataclasses
# ---------------------------------------------------------------------------
#: A local name, a call's index in its function, or a one-tuple source kind.
Dep = str | int | tuple[str]


@dataclass
class CallFact:
    """One call expression inside a function."""

    chain: tuple[str, ...]          # as written: ("self", "_flush"), ("time", "sleep")
    resolved: str | None            # dotted name after import resolution, when known
    lineno: int
    awaited: bool = False
    discarded: bool = False         # statement expression, value unused
    base_call: int | None = None    # chain hangs off call #N: a.submit(x).result()
    arg_deps: tuple[tuple[Dep, ...], ...] = ()   # deps per positional arg
    kw_deps: tuple[tuple[str, tuple[Dep, ...]], ...] = ()  # (kwarg, deps)
    func_refs: tuple[str, ...] = () # uncalled Name/Attribute args, dotted as written


@dataclass
class FunctionFact:
    """Condensed def-use skeleton of one function (or the module body)."""

    qualname: str                   # "Class.method", "func", "outer.inner", "<module>"
    name: str
    cls: str | None
    lineno: int
    is_async: bool
    params: tuple[str, ...]
    calls: tuple[CallFact, ...] = ()
    assigns: tuple[tuple[str, tuple[Dep, ...]], ...] = ()  # (target, deps)
    returns: tuple[Dep, ...] = ()   # union of return-expression deps
    self_attr_assigns: tuple[tuple[str, int, tuple[Dep, ...]], ...] = ()
    free_names: tuple[str, ...] = ()  # read but neither param nor assigned

    def calls_in(self, deps: tuple[Dep, ...]) -> list[CallFact]:
        """The calls whose results ``deps`` carries."""
        return [self.calls[dep] for dep in deps if isinstance(dep, int)]


@dataclass
class ModuleFacts:
    module: str                     # dotted: "repro.server.daemon"
    rel: str                        # repo-relative posix path
    pkgrel: str                     # package-relative path (config globs)
    functions: tuple[FunctionFact, ...] = ()
    # class name -> simple base names; the first definition wins.
    bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # local alias -> dotted target; members resolved to "module.member".
    imports: dict[str, str] = field(default_factory=dict)


def resolve_with_imports(imports: dict[str, str],
                         chain: tuple[str, ...] | None) -> str | None:
    """Dotted name of ``a.b.c`` after applying a module's import table.

    A single name that is not imported stays as written (a builtin or a
    same-module name). A longer chain whose head is not imported is an
    attribute of a local (``self.x``, or a parameter named ``time``),
    not a module path, and resolves to None.
    """
    if not chain:
        return None
    target = imports.get(chain[0])
    if target is not None:
        return ".".join((target, *chain[1:]))
    return chain[0] if len(chain) == 1 else None


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/server/daemon.py`` -> ``repro.server.daemon``;
    ``mod.py`` -> ``mod``; ``pkg/__init__.py`` -> ``pkg``.
    """
    parts = rel.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or rel


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------
def attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` -> ``("a", "b", "c")``; None when the root is not a name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _FunctionExtractor:
    """Builds one FunctionFact; nested defs become their own facts."""

    def __init__(self, owner: "_ModuleExtractor", qualname: str, name: str,
                 cls: str | None, lineno: int, is_async: bool,
                 params: tuple[str, ...]):
        self.owner = owner
        self.fact_args = dict(qualname=qualname, name=name, cls=cls,
                              lineno=lineno, is_async=is_async, params=params)
        self.calls: list[CallFact] = []
        self.assigns: list[tuple[str, tuple[Dep, ...]]] = []
        self.returns: set[Dep] = set()
        self.self_attrs: list[tuple[str, int, tuple[Dep, ...]]] = []
        self.reads: set[str] = set()

    # -- dep computation ---------------------------------------------------
    def deps(self, node: ast.expr | None, *, awaited: bool = False,
             discarded: bool = False) -> list[Dep]:
        """Dependencies of an expression, registering calls on the way."""
        if node is None:
            return []
        if isinstance(node, ast.Await):
            return self.deps(node.value, awaited=True, discarded=discarded)
        if isinstance(node, ast.Name):
            self.reads.add(node.id)
            return [node.id]
        if isinstance(node, ast.Call):
            return [self._register_call(node, awaited, discarded)]
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain is not None:
                self.reads.add(chain[0])
                resolved = resolve_with_imports(self.owner.imports, chain)
                kind = SOURCE_KINDS.get(resolved)
                base: list[Dep] = [chain[0]]
                # bare ``os.environ`` attribute read (no call, no index)
                if resolved == "os.environ":
                    base.append(("environment",))
                if kind:
                    base.append((kind,))
                return base
            return self.deps(node.value)
        if isinstance(node, ast.Subscript):
            out = self.deps(node.value)
            out += self.deps(node.slice)
            chain = attr_chain(node.value)
            if resolve_with_imports(self.owner.imports, chain) == "os.environ":
                out.append(("environment",))
            return out
        if isinstance(node, (ast.Set,)):
            out = [("set-order",)]
            for elt in node.elts:
                out += self.deps(elt)
            return out
        if isinstance(node, ast.Lambda):
            # A lambda's captures are what matter to callers holding it:
            # surface every free name, including receivers of calls made
            # in the body (``lambda c: log.write(c)`` captures ``log``).
            inner = self.deps(node.body)
            bound = {a.arg for a in (node.args.args + node.args.kwonlyargs
                                     + node.args.posonlyargs)}
            free = {
                sub.id for sub in ast.walk(node.body)
                if isinstance(sub, ast.Name) and sub.id not in bound
            }
            self.reads.update(free)
            inner += sorted(free)
            return [d for d in inner if d not in bound]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            out: list[Dep] = []
            for gen in node.generators:
                out += self.deps(gen.iter)
                if isinstance(gen.iter, (ast.Set,)) or self._is_set_call(gen.iter):
                    out.append(("set-order",))
            if isinstance(node, ast.DictComp):
                out += self.deps(node.key) + self.deps(node.value)
            else:
                out += self.deps(node.elt)
            return out
        out = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out += self.deps(child)
            elif isinstance(child, (ast.comprehension, ast.keyword,
                                    ast.FormattedValue)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        out += self.deps(sub)
        return out

    def _is_set_call(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def _register_call(self, node: ast.Call, awaited: bool,
                       discarded: bool) -> int:
        func = node.func
        chain = attr_chain(func)
        base_call: int | None = None
        if chain is None and isinstance(func, ast.Attribute):
            # a.submit(...).result() — chain hangs off an inner call
            inner, tail = func.value, [func.attr]
            while isinstance(inner, ast.Attribute):
                tail.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Call):
                base_call = self._register_call(inner, False, False)
                chain = tuple(reversed(tail))
        arg_deps = []
        func_refs = []
        for arg in node.args:
            arg_deps.append(tuple(self.deps(arg)))
            ref = attr_chain(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else None
            func_refs.append(".".join(ref) if ref else None)
        kw_deps = []
        for kw in node.keywords:
            deps = tuple(self.deps(kw.value))
            kw_deps.append((kw.arg or "**", deps))
            if kw.arg == "target" and isinstance(kw.value, (ast.Name, ast.Attribute)):
                ref = attr_chain(kw.value)
                if ref:
                    func_refs.append(".".join(ref))
        fact = CallFact(
            chain=chain or ("<expr>",),
            resolved=resolve_with_imports(self.owner.imports, chain),
            lineno=node.lineno,
            awaited=awaited,
            discarded=discarded,
            base_call=base_call,
            arg_deps=tuple(arg_deps),
            kw_deps=tuple(kw_deps),
            func_refs=tuple(r for r in func_refs if r),
        )
        if chain:
            self.reads.add(chain[0])
        self.calls.append(fact)
        return len(self.calls) - 1

    # -- statement walk ----------------------------------------------------
    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.owner.extract_function(
                stmt, parent_qual=self.fact_args["qualname"],
                cls=self.fact_args["cls"],
            )
            self.assigns.append((stmt.name, (stmt.name,)))
            return
        if isinstance(stmt, ast.ClassDef):
            self.owner.extract_class(stmt, parent_qual=self.fact_args["qualname"])
            return
        if isinstance(stmt, ast.Return):
            self.returns.update(self.deps(stmt.value))
            return
        if isinstance(stmt, ast.Assign):
            deps = tuple(self.deps(stmt.value))
            for target in stmt.targets:
                self._assign_target(target, deps, stmt.lineno)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, tuple(self.deps(stmt.value)),
                                    stmt.lineno)
            return
        if isinstance(stmt, ast.AugAssign):
            deps = tuple(self.deps(stmt.value))
            self._assign_target(stmt.target, deps, stmt.lineno, augment=True)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            deps = list(self.deps(stmt.iter))
            if isinstance(stmt.iter, ast.Set) or self._is_set_call(stmt.iter):
                deps.append(("set-order",))
            self._assign_target(stmt.target, tuple(deps), stmt.lineno)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                deps = tuple(self.deps(item.context_expr))
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, deps, stmt.lineno)
            self.walk_body(stmt.body)
            return
        if isinstance(stmt, ast.Expr):
            self.deps(stmt.value, discarded=True)
            return
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
            return
        # everything else (if/while, imports, ...): children in source order
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.deps(child)
            elif isinstance(child, ast.stmt):
                self.walk_stmt(child)

    def _assign_target(self, target: ast.expr, deps: tuple[Dep, ...],
                       lineno: int, *, augment: bool = False) -> None:
        if isinstance(target, ast.Name):
            if augment:
                deps = deps + (target.id,)
            self.assigns.append((target.id, deps))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, deps, lineno)
        elif isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                self.self_attrs.append((chain[1], lineno, deps))
            elif chain:
                self.reads.add(chain[0])
        elif isinstance(target, ast.Subscript):
            self.deps(target.slice)
            chain = attr_chain(target.value)
            if chain is not None and len(chain) == 1:
                # stats["k"] = tainted  — weak update: the container now
                # carries the value's taint alongside whatever it held.
                self.reads.add(chain[0])
                self.assigns.append((chain[0], deps + (chain[0],)))
            elif chain is not None and chain[0] == "self" and len(chain) == 2:
                self.self_attrs.append((chain[1], lineno, deps))
            else:
                self.deps(target.value)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, deps, lineno)

    def finish(self) -> FunctionFact:
        assigned = {t for t, _ in self.assigns} | set(self.fact_args["params"])
        free = sorted(self.reads - assigned - {"self", "cls"})
        return FunctionFact(
            calls=tuple(self.calls),
            assigns=tuple(self.assigns),
            returns=tuple(sorted(self.returns, key=str)),
            self_attr_assigns=tuple(self.self_attrs),
            free_names=tuple(free),
            **self.fact_args,
        )


class _ModuleExtractor:
    def __init__(self, tree: ast.AST, module: str):
        self.module = module
        self.functions: list[FunctionFact] = []
        self.bases: dict[str, tuple[str, ...]] = {}
        self.imports: dict[str, str] = {}
        self._collect_imports(tree)
        body = _FunctionExtractor(self, "<module>", "<module>", None, 1, False, ())
        body.walk_body(list(tree.body))
        self.functions.append(body.finish())

    # -- imports -----------------------------------------------------------
    def _collect_imports(self, tree: ast.AST) -> None:
        package = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # relative: climb level-1 packages above this module's package
                    anchor = package.split(".") if package else []
                    climb = node.level - 1
                    anchor = anchor[: len(anchor) - climb] if climb else anchor
                    base = ".".join(anchor + ([node.module] if node.module else []))
                if not base:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}"

    # -- defs --------------------------------------------------------------
    def extract_function(self, node, *, parent_qual: str | None = None,
                         cls: str | None = None) -> None:
        qual = node.name if parent_qual in (None, "<module>") else \
            f"{parent_qual}.{node.name}"
        params = tuple(
            a.arg
            for a in (node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
            if a.arg not in ("self", "cls")
        )
        fx = _FunctionExtractor(
            self, qual, node.name, cls, node.lineno,
            isinstance(node, ast.AsyncFunctionDef), params,
        )
        fx.walk_body(list(node.body))
        self.functions.append(fx.finish())

    def extract_class(self, node: ast.ClassDef, *, parent_qual: str) -> None:
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.extract_function(item, parent_qual=node.name, cls=node.name)
            elif isinstance(item, ast.ClassDef):
                self.extract_class(item, parent_qual=node.name)
            else:
                # class-level assignments may still carry source events
                fx = _FunctionExtractor(self, f"{node.name}.<class>", "<class>",
                                        node.name, item.lineno, False, ())
                fx.walk_stmt(item)
                fact = fx.finish()
                if fact.calls or fact.assigns:
                    self.functions.append(fact)
        self.bases.setdefault(node.name, tuple(
            name for name in map(simple_base_name, node.bases) if name))


def extract_facts(tree: ast.AST, rel: str, pkgrel: str) -> ModuleFacts:
    """One-pass fact extraction for a parsed module."""
    module = module_name_for(rel)
    mx = _ModuleExtractor(tree, module)
    return ModuleFacts(
        module=module, rel=rel, pkgrel=pkgrel,
        functions=tuple(mx.functions), bases=mx.bases, imports=mx.imports,
    )


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One resolved edge occurrence: caller calls ``target`` at a line."""

    caller: str        # function key "module:qualname"
    target: str        # function key
    rel: str           # caller's file
    lineno: int
    deferred: bool     # reference handed to an executor/task, not a stack call


class CallGraph:
    """Project-wide call graph over :class:`ModuleFacts`.

    Function keys are ``"module:qualname"``. Only calls that resolve to
    a project function make edges; external targets (stdlib,
    third-party) stay on the :class:`CallFact` as its ``resolved`` name.
    """

    def __init__(self, modules: list[ModuleFacts]):
        self.modules = {m.module: m for m in modules}
        self.functions: dict[str, FunctionFact] = {}
        self.facts_of: dict[str, ModuleFacts] = {}
        self._methods: dict[tuple[str, str], str] = {}   # (class, meth) -> key
        self._class_bases: dict[str, tuple[str, ...]] = {}
        for mod in modules:
            for fn in mod.functions:
                key = f"{mod.module}:{fn.qualname}"
                self.functions[key] = fn
                self.facts_of[key] = mod
                if fn.cls is not None and fn.qualname == f"{fn.cls}.{fn.name}":
                    self._methods[(fn.cls, fn.name)] = key
            for name, bases in mod.bases.items():
                self._class_bases.setdefault(name, bases)
        # (class, attr) -> class of the value, for ``self.attr = Cls(...)``
        # assignments — lets ``self.store.incomplete()`` resolve through
        # the attribute's constructor type.
        self._attr_class: dict[tuple[str, str], str] = {}
        for mod in modules:
            for fn in mod.functions:
                if fn.cls is None:
                    continue
                for attr, _lineno, deps in fn.self_attr_assigns:
                    for call in fn.calls_in(deps):
                        cls_name = (call.resolved or "").rpartition(".")[2]
                        if cls_name in self._class_bases:
                            self._attr_class[(fn.cls, attr)] = cls_name
        self.edges: dict[str, list[CallSite]] = {}
        for key, fn in self.functions.items():
            self.edges[key] = list(self._edges_for(key, fn))

    # -- resolution --------------------------------------------------------
    def resolve_project(self, mod: ModuleFacts, fn: FunctionFact,
                        call: CallFact) -> str | None:
        """Project function key a call lands on, when determinable."""
        chain = call.chain
        if chain[0] == "self" and len(chain) == 2 and fn.cls is not None:
            return self._resolve_method(fn.cls, chain[1])
        if chain[0] == "self" and len(chain) == 3 and fn.cls is not None:
            attr_cls = self._attr_class.get((fn.cls, chain[1]))
            if attr_cls is not None:
                return self._resolve_method(attr_cls, chain[2])
        target = call.resolved
        if not target:
            return None
        if "." in target:
            # member import / module attribute "pkg.mod.func", or a
            # class constructor there
            mod_name, _, attr = target.rpartition(".")
            keys = (f"{mod_name}:{attr}", f"{mod_name}:{attr}.__init__")
        else:
            # same-module function, nested function of the caller, or
            # same-module class constructor
            keys = (f"{mod.module}:{target}",
                    f"{mod.module}:{fn.qualname}.{target}",
                    f"{mod.module}:{target}.__init__")
        return next((key for key in keys if key in self.functions), None)

    def _resolve_method(self, cls: str, meth: str) -> str | None:
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            key = self._methods.get((name, meth))
            if key is not None:
                return key
            frontier.extend(self._class_bases.get(name, ()))
        return None

    def resolve_ref(self, mod: ModuleFacts, fn: FunctionFact,
                    ref: str) -> str | None:
        """Resolve a function *reference* string (``self._flush``, ``f``)."""
        parts = tuple(ref.split("."))
        fact = CallFact(chain=parts, resolved=resolve_with_imports(mod.imports, parts),
                        lineno=0)
        return self.resolve_project(mod, fn, fact)

    def _edges_for(self, key: str, fn: FunctionFact):
        mod = self.facts_of[key]
        for call in fn.calls:
            target = self.resolve_project(mod, fn, call)
            if target is not None:
                yield CallSite(key, target, mod.rel, call.lineno, deferred=False)
            if call.chain[-1] in _EXECUTOR_WRAPPERS:
                for ref in call.func_refs:
                    rkey = self.resolve_ref(mod, fn, ref)
                    if rkey is not None:
                        yield CallSite(key, rkey, mod.rel, call.lineno,
                                       deferred=True)

    # -- queries -----------------------------------------------------------
    def callees(self, key: str, *, deferred: bool = False) -> list[CallSite]:
        return [e for e in self.edges.get(key, ())
                if deferred or not e.deferred]

    def reach(self, root: str, *, deferred: bool = False) -> dict[str, CallSite]:
        """``{reached key: first edge on a shortest path}`` from ``root``."""
        parent: dict[str, CallSite] = {}
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for edge in self.callees(current, deferred=deferred):
                if edge.target in parent or edge.target == root:
                    continue
                parent[edge.target] = edge
                frontier.append(edge.target)
        return parent

    def path(self, root: str, target: str,
             parent: dict[str, CallSite]) -> list[CallSite]:
        """Edge list root -> target given a ``reach(root)`` parent map."""
        chain: list[CallSite] = []
        current = target
        while current != root:
            edge = parent.get(current)
            if edge is None:
                break
            chain.append(edge)
            current = edge.caller
        return list(reversed(chain))

    def describe_path(self, edges: list[CallSite]) -> str:
        hops = []
        for edge in edges:
            name = edge.target.split(":", 1)[-1]
            hops.append(f"{name} ({edge.rel}:{edge.lineno})")
        return " -> ".join(hops)


# ---------------------------------------------------------------------------
# taint engine
# ---------------------------------------------------------------------------
@dataclass
class SinkSpec:
    """Where taint must not arrive.

    ``kind`` labels the report; a sink matches a call when the resolved
    name is in ``resolved`` or the chain tail is in ``tails`` (with all
    of ``require_kwargs`` present). ``kwargs_only`` restricts the check
    to those keyword values (empty = every argument).
    """

    kind: str
    resolved: frozenset[str] = frozenset()
    tails: frozenset[str] = frozenset()
    require_kwargs: frozenset[str] = frozenset()
    kwargs_only: frozenset[str] = frozenset()   # check only these kwargs
    return_of: frozenset[str] = frozenset()     # function names whose return is the sink


@dataclass
class TaintFinding:
    """Taint reached a sink: everything a rule needs to report it."""

    rel: str
    lineno: int
    sink_kind: str
    kinds: tuple[str, ...]          # source kinds that arrived
    via: str                        # human trail: "arg 0 of flatten()"


class TaintAnalysis:
    """Interprocedural taint over the def-use skeletons.

    A taint set holds source kinds (``str``) and, while a function is
    summarized, the indices (``int``) of the parameters that flow in.
    Summaries per function: ``ret_kinds`` (source kinds its return
    always carries), ``ret_params`` (parameter indices flowing to the
    return), ``param_sinks`` (parameter index -> sink hits below this
    function). Computed to a fixpoint, then :meth:`findings` replays
    each function once more to localize violations.
    """

    _MAX_ROUNDS = 12

    def __init__(self, graph: CallGraph, sinks: list[SinkSpec],
                 sanitizer_globs: tuple[str, ...]):
        self.graph = graph
        self.sinks = sinks
        self.sanitizer_globs = sanitizer_globs
        self.ret_kinds: dict[str, frozenset[str]] = {}
        self.ret_params: dict[str, frozenset[int]] = {}
        self.param_sinks: dict[str, dict[int, list[tuple[str, str, int]]]] = {}
        # function name -> kind of the first sink whose return it is
        self._return_sinks: dict[str, str] = {}
        for sink in sinks:
            for name in sink.return_of:
                self._return_sinks.setdefault(name, sink.kind)
        self._fixpoint()

    def _is_sanitizer_module(self, mod: ModuleFacts) -> bool:
        return matches_any(mod, self.sanitizer_globs)

    # -- name-level propagation inside one function ------------------------
    def _call_taint(self, key: str, fn: FunctionFact, call_idx: int,
                    name_taint: dict[str, frozenset],
                    param_syms: dict[str, int]) -> frozenset:
        call = fn.calls[call_idx]
        mod = self.graph.facts_of[key]
        target = self.graph.resolve_project(mod, fn, call)
        arg_taints = [self._deps_taint(key, fn, deps, name_taint, param_syms)
                      for deps in call.arg_deps]
        union_args: frozenset = frozenset().union(*arg_taints) \
            if arg_taints else frozenset()
        if target is not None:
            if self._is_sanitizer_module(self.graph.facts_of[target]):
                return frozenset()
            out = set(self.ret_kinds.get(target, frozenset()))
            for idx in self.ret_params.get(target, frozenset()):
                if idx < len(arg_taints):
                    out |= arg_taints[idx]
            return frozenset(out)
        resolved = call.resolved or ""
        kind = SOURCE_KINDS.get(resolved)
        if kind is not None:
            return union_args | {kind}
        if resolved == "sorted":
            return union_args - ORDER_KINDS
        if resolved in ("set", "frozenset"):
            return union_args | {"set-order"}
        # unknown method call on a local object: the receiver's taint
        # flows through (``t.hex()`` of a tainted ``t`` stays tainted).
        if len(call.chain) > 1 and call.chain[0] not in ("self", "cls"):
            head = call.chain[0]
            union_args |= name_taint.get(head, frozenset())
            if head in param_syms:
                union_args |= {param_syms[head]}
        # chained receiver: os.urandom(8).hex() — the inner call's taint
        # flows through the method on its result.
        if call.base_call is not None:
            union_args |= self._cached_call_taint(
                key, fn, call.base_call, name_taint, param_syms
            )
        # unknown external: conservative pass-through of argument taint
        return union_args

    def _deps_taint(self, key: str, fn: FunctionFact, deps: tuple[Dep, ...],
                    name_taint: dict[str, frozenset],
                    param_syms: dict[str, int]) -> frozenset:
        out: set = set()
        for dep in deps:
            if isinstance(dep, str):
                out |= name_taint.get(dep, frozenset())
                if dep in param_syms:
                    out.add(param_syms[dep])
            elif isinstance(dep, int):
                out |= self._cached_call_taint(key, fn, dep, name_taint,
                                               param_syms)
            else:
                out.add(dep[0])
        return frozenset(out)

    def _cached_call_taint(self, key, fn, idx, name_taint, param_syms):
        cache = self._call_cache
        ck = (key, idx)
        if ck not in cache:
            cache[ck] = frozenset()  # break cycles
            cache[ck] = self._call_taint(key, fn, idx, name_taint, param_syms)
        return cache[ck]

    def _analyze_function(self, key: str, fn: FunctionFact):
        """(name_taint, param_syms) after intra-function fixpoint."""
        param_syms = {name: i for i, name in enumerate(fn.params)}
        name_taint: dict[str, frozenset] = {}
        for _ in range(4):
            self._call_cache: dict = {}
            changed = False
            for target, deps in fn.assigns:
                taint = self._deps_taint(key, fn, deps, name_taint, param_syms)
                merged = name_taint.get(target, frozenset()) | taint
                if merged != name_taint.get(target, frozenset()):
                    name_taint[target] = merged
                    changed = True
            if not changed:
                break
        self._call_cache = {}
        return name_taint, param_syms

    # -- summary fixpoint --------------------------------------------------
    def _fixpoint(self) -> None:
        for _ in range(self._MAX_ROUNDS):
            changed = False
            for key, fn in self.graph.functions.items():
                mod = self.graph.facts_of[key]
                if self._is_sanitizer_module(mod):
                    continue
                name_taint, param_syms = self._analyze_function(key, fn)
                ret = self._deps_taint(key, fn, fn.returns, name_taint,
                                       param_syms)
                kinds = frozenset(k for k in ret if isinstance(k, str))
                params = frozenset(k for k in ret if isinstance(k, int))
                if kinds != self.ret_kinds.get(key, frozenset()):
                    self.ret_kinds[key] = kinds
                    changed = True
                if params != self.ret_params.get(key, frozenset()):
                    self.ret_params[key] = params
                    changed = True
                sink_map = self._param_sink_map(key, fn, name_taint, param_syms)
                if sink_map != self.param_sinks.get(key, {}):
                    self.param_sinks[key] = sink_map
                    changed = True
            if not changed:
                break

    def _param_sink_map(self, key, fn, name_taint, param_syms):
        """Parameter index -> the sinks its value reaches, in flow order."""
        out: dict[int, list[tuple[str, str, int]]] = {}
        for taint, sink_kind, rel, lineno, _, _ in self._sink_flows(
                key, fn, name_taint, param_syms):
            for idx in taint:
                if isinstance(idx, int):
                    hits = out.setdefault(idx, [])
                    if (sink_kind, rel, lineno) not in hits:
                        hits.append((sink_kind, rel, lineno))
        return out

    def _sink_hits(self, call: CallFact, target: str | None):
        """(sink, checked (label, deps) pairs) for a matching call."""
        resolved = call.resolved or ""
        tail = call.chain[-1]
        kw_names = {k for k, _ in call.kw_deps}
        for sink in self.sinks:
            matched = resolved in sink.resolved
            if not matched and tail in sink.tails:
                if sink.require_kwargs <= kw_names:
                    matched = True
            if not matched and target is not None:
                # member-imported project sink (resolved to project key)
                short = target.split(":", 1)[-1]
                if any(r.endswith("." + short) or r == short
                       for r in sink.resolved):
                    matched = True
            if not matched:
                continue
            pairs = []
            if sink.kwargs_only:
                for name, deps in call.kw_deps:
                    if name in sink.kwargs_only:
                        pairs.append((f"{name}=", deps))
            else:
                for i, deps in enumerate(call.arg_deps):
                    pairs.append((f"arg {i}", deps))
                for name, deps in call.kw_deps:
                    pairs.append((f"{name}=", deps))
            yield sink, pairs

    def _sink_flows(self, key, fn, name_taint, param_syms):
        """Every value that reaches a sink in one function.

        Yields ``(taint, sink kind, sink file, sink line, line, via)``
        for a sink call's checked arguments, for an argument bound to a
        callee parameter that reaches a sink below it, and for a return
        sink's return value; ``line`` is where the flow leaves ``fn``.
        """
        mod = self.graph.facts_of[key]

        def taint(deps):
            return self._deps_taint(key, fn, deps, name_taint, param_syms)

        for call in fn.calls:
            name = ".".join(call.chain)
            target = self.graph.resolve_project(mod, fn, call)
            for sink, pairs in self._sink_hits(call, target):
                for label, deps in pairs:
                    yield (taint(deps), sink.kind, mod.rel, call.lineno,
                           call.lineno, f"{label} of {name}()")
            callee_sinks = self.param_sinks.get(target, {})
            for i, deps in enumerate(call.arg_deps):
                if i not in callee_sinks:
                    continue
                arg_taint = taint(deps)
                for sink_kind, rel, lineno in callee_sinks[i]:
                    yield (arg_taint, sink_kind, rel, lineno, call.lineno,
                           f"arg {i} of {name}() reaches the sink at "
                           f"{rel}:{lineno}")
        sink_kind = self._return_sinks.get(fn.name)
        if sink_kind is not None:
            yield (taint(fn.returns), sink_kind, mod.rel, fn.lineno,
                   fn.lineno, f"return value of {fn.qualname}")

    # -- findings ----------------------------------------------------------
    def findings(self) -> list[TaintFinding]:
        out: list[TaintFinding] = []
        for key, fn in self.graph.functions.items():
            mod = self.graph.facts_of[key]
            if self._is_sanitizer_module(mod):
                continue
            name_taint, param_syms = self._analyze_function(key, fn)
            for taint, sink_kind, _, _, lineno, via in self._sink_flows(
                    key, fn, name_taint, param_syms):
                kinds = tuple(sorted(k for k in taint if isinstance(k, str)))
                if kinds:
                    out.append(TaintFinding(mod.rel, lineno, sink_kind,
                                            kinds, via))
        return out

"""Whole-program dataflow for simlint v2: facts, call graph, taint.

Three layers, each feeding the next:

* **Fact extraction** — one AST pass per module produces a
  :class:`ModuleFacts`: every function (including a synthetic
  ``<module>`` body), its calls, a condensed def-use skeleton
  (assignments and returns as lists of *dep tokens*), ambient-entropy
  source events, and an import table that resolves relative imports.

* **Call graph** — :class:`CallGraph` resolves each call fact to a
  project function where it can (``from repro.x import f`` member
  imports, same-module names, ``self.method`` through the class
  hierarchy, ``alias.f`` module attributes) and keeps the dotted
  external name otherwise (``time.sleep``). Function *references*
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

Dep tokens are compact strings: ``n:x`` (local name), ``c:3`` (result
of call #3 in this function), ``s:wallclock:17`` (source event of a
kind at a line). Parameters are just names; the summary computation
seeds them with symbolic kinds.

The analysis is intentionally name-based and flow-insensitive inside a
function: it trades soundness-in-the-limit for zero configuration and
speed (the whole repro tree analyzes in well under a second), and every
rule built on it reports *why* with the full call chain so a false
positive is cheap to judge and suppress.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch

__all__ = [
    "CallFact",
    "FunctionFact",
    "ClassFact",
    "ModuleFacts",
    "extract_facts",
    "module_name_for",
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
@dataclass
class CallFact:
    """One call expression inside a function."""

    chain: tuple[str, ...]          # as written: ("self", "_flush"), ("time", "sleep")
    resolved: str | None            # dotted name after import resolution, when known
    lineno: int
    awaited: bool = False
    discarded: bool = False         # statement expression, value unused
    base_call: int | None = None    # chain hangs off call #N: a.submit(x).result()
    arg_deps: tuple[tuple[str, ...], ...] = ()   # dep tokens per positional arg
    kw_deps: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (kwarg, deps)
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
    assigns: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (target, deps)
    returns: tuple[str, ...] = ()   # union of return-expression deps
    self_attr_assigns: tuple[tuple[str, int, tuple[str, ...]], ...] = ()
    free_names: tuple[str, ...] = ()  # read but neither param nor assigned


@dataclass
class ClassFact:
    name: str
    lineno: int
    bases: tuple[str, ...]          # simple (last-attr) names
    methods: tuple[str, ...]


@dataclass
class ModuleFacts:
    module: str                     # dotted: "repro.server.daemon"
    rel: str                        # repo-relative posix path
    pkgrel: str                     # package-relative path (config globs)
    functions: tuple[FunctionFact, ...] = ()
    classes: tuple[ClassFact, ...] = ()
    # local alias -> dotted target; members resolved to "module.member".
    imports: dict[str, str] = field(default_factory=dict)


def resolve_with_imports(imports: dict[str, str],
                         chain: tuple[str, ...]) -> str | None:
    """Dotted name of ``a.b.c`` after applying a module's import table."""
    if not chain:
        return None
    target = imports.get(chain[0])
    if target is not None:
        return ".".join((target, *chain[1:]))
    if len(chain) == 1:
        return chain[0]  # builtin or same-module name
    return None if chain[0] in ("self", "cls") else ".".join(chain)


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
def _attr_chain(node: ast.expr) -> tuple[str, ...] | None:
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
        self.assigns: list[tuple[str, tuple[str, ...]]] = []
        self.returns: set[str] = set()
        self.self_attrs: list[tuple[str, int, tuple[str, ...]]] = []
        self.reads: set[str] = set()

    # -- dep computation ---------------------------------------------------
    def deps(self, node: ast.expr | None, *, awaited: bool = False,
             discarded: bool = False) -> list[str]:
        """Dep tokens of an expression, registering calls on the way."""
        if node is None:
            return []
        if isinstance(node, ast.Await):
            return self.deps(node.value, awaited=True, discarded=discarded)
        if isinstance(node, ast.Name):
            self.reads.add(node.id)
            return [f"n:{node.id}"]
        if isinstance(node, ast.Call):
            return [f"c:{self._register_call(node, awaited, discarded)}"]
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain is not None:
                self.reads.add(chain[0])
                resolved = self.owner.resolve_chain(chain)
                kind = SOURCE_KINDS.get(resolved or "")
                base = [f"n:{chain[0]}"]
                # bare ``os.environ`` attribute read (no call, no index)
                if resolved == "os.environ":
                    base.append(f"s:environment:{node.lineno}")
                if kind:
                    base.append(f"s:{kind}:{node.lineno}")
                return base
            return self.deps(node.value)
        if isinstance(node, ast.Subscript):
            out = self.deps(node.value)
            out += self.deps(node.slice)
            chain = _attr_chain(node.value)
            if chain and self.owner.resolve_chain(chain) == "os.environ":
                out.append(f"s:environment:{node.lineno}")
            return out
        if isinstance(node, (ast.Set,)):
            out = [f"s:set-order:{node.lineno}"]
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
            inner += [f"n:{name}" for name in sorted(free)]
            return [d for d in inner if not (d.startswith("n:") and d[2:] in bound)]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            out: list[str] = []
            for gen in node.generators:
                out += self.deps(gen.iter)
                if isinstance(gen.iter, (ast.Set,)) or self._is_set_call(gen.iter):
                    out.append(f"s:set-order:{node.lineno}")
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
        chain = _attr_chain(func)
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
            ref = _attr_chain(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else None
            func_refs.append(".".join(ref) if ref else None)
        kw_deps = []
        for kw in node.keywords:
            deps = tuple(self.deps(kw.value))
            kw_deps.append((kw.arg or "**", deps))
            if kw.arg == "target" and isinstance(kw.value, (ast.Name, ast.Attribute)):
                ref = _attr_chain(kw.value)
                if ref:
                    func_refs.append(".".join(ref))
        resolved = self.owner.resolve_chain(chain) if chain else None
        fact = CallFact(
            chain=chain or ("<expr>",),
            resolved=resolved,
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
            self.assigns.append((stmt.name, (f"n:{stmt.name}",)))
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
                deps.append(f"s:set-order:{stmt.lineno}")
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
        if isinstance(stmt, (ast.If, ast.While)):
            self.deps(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return  # module-level imports handled by the owner
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.deps(child)
            elif isinstance(child, ast.stmt):
                self.walk_stmt(child)

    def _assign_target(self, target: ast.expr, deps: tuple[str, ...],
                       lineno: int, *, augment: bool = False) -> None:
        if isinstance(target, ast.Name):
            if augment:
                deps = deps + (f"n:{target.id}",)
            self.assigns.append((target.id, deps))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, deps, lineno)
        elif isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                self.self_attrs.append((chain[1], lineno, deps))
            elif chain:
                self.reads.add(chain[0])
        elif isinstance(target, ast.Subscript):
            self.deps(target.slice)
            chain = _attr_chain(target.value)
            if chain is not None and len(chain) == 1:
                # stats["k"] = tainted  — weak update: the container now
                # carries the value's taint alongside whatever it held.
                self.reads.add(chain[0])
                self.assigns.append((chain[0], deps + (f"n:{chain[0]}",)))
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
            returns=tuple(sorted(self.returns)),
            self_attr_assigns=tuple(self.self_attrs),
            free_names=tuple(free),
            **self.fact_args,
        )


class _ModuleExtractor:
    def __init__(self, tree: ast.AST, module: str, rel: str, pkgrel: str):
        self.module = module
        self.rel = rel
        self.pkgrel = pkgrel
        self.functions: list[FunctionFact] = []
        self.classes: list[ClassFact] = []
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

    def resolve_chain(self, chain: tuple[str, ...] | None) -> str | None:
        """Dotted name of ``a.b.c`` after applying the import table."""
        if not chain:
            return None
        return resolve_with_imports(self.imports, chain)

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
        bases = []
        for base in node.bases:
            chain = _attr_chain(base if not isinstance(base, ast.Subscript)
                                else base.value)
            if chain:
                bases.append(chain[-1])
        methods = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(item.name)
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
        self.classes.append(ClassFact(
            name=node.name, lineno=node.lineno,
            bases=tuple(bases), methods=tuple(methods),
        ))


def extract_facts(tree: ast.AST, rel: str, pkgrel: str) -> ModuleFacts:
    """One-pass fact extraction for a parsed module."""
    module = module_name_for(rel)
    mx = _ModuleExtractor(tree, module, rel, pkgrel)
    return ModuleFacts(
        module=module, rel=rel, pkgrel=pkgrel,
        functions=tuple(mx.functions), classes=tuple(mx.classes),
        imports=mx.imports,
    )


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One resolved edge occurrence: caller calls ``target`` at a line."""

    caller: str        # function key "module:qualname"
    target: str        # function key, or external dotted name
    rel: str           # caller's file
    lineno: int
    external: bool
    deferred: bool     # reference handed to an executor/task, not a stack call


class CallGraph:
    """Project-wide call graph over :class:`ModuleFacts`.

    Function keys are ``"module:qualname"``. External targets (stdlib,
    third-party) keep their dotted name and ``external=True`` on the
    edge; reachability walks only project functions.
    """

    def __init__(self, modules: list[ModuleFacts]):
        self.modules = {m.module: m for m in modules}
        self.by_rel = {m.rel: m for m in modules}
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
            for cls in mod.classes:
                self._class_bases.setdefault(cls.name, cls.bases)
        # (class, attr) -> class of the value, for ``self.attr = Cls(...)``
        # assignments — lets ``self.store.incomplete()`` resolve through
        # the attribute's constructor type.
        self._attr_class: dict[tuple[str, str], str] = {}
        for mod in modules:
            for fn in mod.functions:
                if fn.cls is None:
                    continue
                for attr, _lineno, deps in fn.self_attr_assigns:
                    for dep in deps:
                        if not dep.startswith("c:"):
                            continue
                        call = fn.calls[int(dep[2:])]
                        cls_name = (call.resolved or "").rpartition(".")[2] \
                            or (call.resolved or "")
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
        if call.resolved:
            target = call.resolved
            # member import / module attribute: "pkg.mod.func"
            if "." in target:
                mod_name, _, attr = target.rpartition(".")
                owner = self.modules.get(mod_name)
                if owner is not None:
                    key = f"{mod_name}:{attr}"
                    if key in self.functions:
                        return key
                    # class constructor or re-export: try __init__
                    key = f"{mod_name}:{attr}.__init__"
                    if key in self.functions:
                        return key
                # import of a name re-exported through a package __init__
                owner = self.modules.get(target)
            else:
                key = f"{mod.module}:{target}"
                if key in self.functions:
                    return key
                # nested function of the caller
                key = f"{mod.module}:{fn.qualname}.{target}"
                if key in self.functions:
                    return key
                # class in same module -> constructor
                key = f"{mod.module}:{target}.__init__"
                if key in self.functions:
                    return key
        return None

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
            tail = call.chain[-1]
            deferred_refs = tail in _EXECUTOR_WRAPPERS
            target = self.resolve_project(mod, fn, call)
            if target is not None:
                yield CallSite(key, target, mod.rel, call.lineno,
                               external=False, deferred=False)
            elif call.resolved is not None:
                yield CallSite(key, call.resolved, mod.rel, call.lineno,
                               external=True, deferred=False)
            if deferred_refs:
                for ref in call.func_refs:
                    rkey = self.resolve_ref(mod, fn, ref)
                    if rkey is not None:
                        yield CallSite(key, rkey, mod.rel, call.lineno,
                                       external=False, deferred=True)

    # -- queries -----------------------------------------------------------
    def callees(self, key: str, *, deferred: bool = False) -> list[CallSite]:
        return [e for e in self.edges.get(key, ())
                if not e.external and (deferred or not e.deferred)]

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
    of ``require_kwargs`` present). ``args`` restricts which positional
    / keyword values are checked (empty = all).
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
    via: str                        # human trail: "through helper f (x.py:3)"
    function: str                   # enclosing function key


class TaintAnalysis:
    """Interprocedural taint over the def-use skeletons.

    Summaries per function: ``ret_kinds`` (source kinds its return
    always carries), ``ret_params`` (parameter indices flowing to the
    return), ``param_sinks`` (parameter index -> sink hits below this
    function). Computed to a fixpoint, then :meth:`findings` replays
    each function once more to localize violations.
    """

    _MAX_ROUNDS = 12

    def __init__(self, graph: CallGraph, sinks: list[SinkSpec],
                 sanitizer_globs: tuple[str, ...],
                 scope_skip_globs: tuple[str, ...] = ()):
        self.graph = graph
        self.sinks = sinks
        self.sanitizer_globs = sanitizer_globs
        self.scope_skip_globs = scope_skip_globs
        self.ret_kinds: dict[str, frozenset[str]] = {}
        self.ret_params: dict[str, frozenset[int]] = {}
        self.param_sinks: dict[str, dict[int, list[tuple[str, str, int]]]] = {}
        self._return_sink_names = set()
        for sink in sinks:
            self._return_sink_names |= set(sink.return_of)
        self._fixpoint()

    # -- module roles ------------------------------------------------------
    def _is_sanitizer_module(self, mod: ModuleFacts) -> bool:
        return any(fnmatch(mod.rel, g) or fnmatch(mod.pkgrel, g)
                   for g in self.sanitizer_globs)

    def _in_scope(self, mod: ModuleFacts) -> bool:
        if self._is_sanitizer_module(mod):
            return False
        return not any(fnmatch(mod.rel, g) or fnmatch(mod.pkgrel, g)
                       for g in self.scope_skip_globs)

    # -- name-level propagation inside one function ------------------------
    def _call_taint(self, key: str, fn: FunctionFact, call_idx: int,
                    name_taint: dict[str, frozenset[str]],
                    param_syms: dict[str, str]) -> frozenset[str]:
        call = fn.calls[call_idx]
        mod = self.graph.facts_of[key]
        target = self.graph.resolve_project(mod, fn, call)
        arg_taints = [self._deps_taint(key, fn, deps, name_taint, param_syms)
                      for deps in call.arg_deps]
        union_args: frozenset[str] = frozenset().union(*arg_taints) \
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

    def _deps_taint(self, key: str, fn: FunctionFact, deps: tuple[str, ...],
                    name_taint: dict[str, frozenset[str]],
                    param_syms: dict[str, str]) -> frozenset[str]:
        out: set[str] = set()
        for token in deps:
            if token.startswith("n:"):
                name = token[2:]
                out |= name_taint.get(name, frozenset())
                if name in param_syms:
                    out.add(param_syms[name])
            elif token.startswith("c:"):
                out |= self._cached_call_taint(key, fn, int(token[2:]),
                                               name_taint, param_syms)
            elif token.startswith("s:"):
                out.add(token.split(":")[1])
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
        param_syms = {name: f"@p{i}" for i, name in enumerate(fn.params)}
        name_taint: dict[str, frozenset[str]] = {}
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
                kinds = frozenset(k for k in ret if not k.startswith("@p"))
                params = frozenset(int(k[2:]) for k in ret if k.startswith("@p"))
                if kinds != self.ret_kinds.get(key, frozenset()):
                    self.ret_kinds[key] = kinds
                    changed = True
                if params != self.ret_params.get(key, frozenset()):
                    self.ret_params[key] = params
                    changed = True
                sink_map = self._collect_param_sinks(key, fn, name_taint,
                                                     param_syms)
                if sink_map != self.param_sinks.get(key, {}):
                    self.param_sinks[key] = sink_map
                    changed = True
            if not changed:
                break

    def _sink_hits(self, fn: FunctionFact, call: CallFact,
                   mod: ModuleFacts):
        """(sink, checked (label, deps) pairs) for a matching call."""
        target = self.graph.resolve_project(mod, fn, call)
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

    def _collect_param_sinks(self, key, fn, name_taint, param_syms):
        mod = self.graph.facts_of[key]
        out: dict[int, list[tuple[str, str, int]]] = {}

        def note(sym_kinds, sink_kind, rel, lineno):
            for kind in sym_kinds:
                idx = int(kind[2:])
                hits = out.setdefault(idx, [])
                entry = (sink_kind, rel, lineno)
                if entry not in hits:
                    hits.append(entry)

        for call in fn.calls:
            for sink, pairs in self._sink_hits(fn, call, mod):
                for _, deps in pairs:
                    taint = self._deps_taint(key, fn, deps, name_taint,
                                             param_syms)
                    note({k for k in taint if k.startswith("@p")},
                         sink.kind, mod.rel, call.lineno)
            # propagate through callees' param_sinks
            target = self.graph.resolve_project(mod, fn, call)
            if target is None:
                continue
            callee_sinks = self.param_sinks.get(target, {})
            for i, deps in enumerate(call.arg_deps):
                if i not in callee_sinks:
                    continue
                taint = self._deps_taint(key, fn, deps, name_taint, param_syms)
                for sk, rel, ln in callee_sinks[i]:
                    note({k for k in taint if k.startswith("@p")}, sk, rel, ln)
        if fn.name in self._return_sink_names:
            ret = self._deps_taint(key, fn, fn.returns, name_taint, param_syms)
            note({k for k in ret if k.startswith("@p")},
                 self._return_sink_kind(fn.name), mod.rel, fn.lineno)
        return out

    def _return_sink_kind(self, fn_name: str) -> str:
        for sink in self.sinks:
            if fn_name in sink.return_of:
                return sink.kind
        return "sink"

    # -- findings ----------------------------------------------------------
    def findings(self) -> list[TaintFinding]:
        out: list[TaintFinding] = []
        for key, fn in self.graph.functions.items():
            mod = self.graph.facts_of[key]
            if not self._in_scope(mod):
                continue
            name_taint, param_syms = self._analyze_function(key, fn)
            real = lambda ts: tuple(sorted(  # noqa: E731
                k for k in ts if not k.startswith("@p")))
            for call in fn.calls:
                for sink, pairs in self._sink_hits(fn, call, mod):
                    for label, deps in pairs:
                        kinds = real(self._deps_taint(
                            key, fn, deps, name_taint, param_syms))
                        if kinds:
                            out.append(TaintFinding(
                                rel=mod.rel, lineno=call.lineno,
                                sink_kind=sink.kind, kinds=kinds,
                                via=f"{label} of {'.'.join(call.chain)}()",
                                function=key,
                            ))
                target = self.graph.resolve_project(mod, fn, call)
                if target is None:
                    continue
                callee_sinks = self.param_sinks.get(target, {})
                for i, deps in enumerate(call.arg_deps):
                    if i not in callee_sinks:
                        continue
                    kinds = real(self._deps_taint(key, fn, deps, name_taint,
                                                  param_syms))
                    if not kinds:
                        continue
                    for sk, rel, ln in callee_sinks[i]:
                        out.append(TaintFinding(
                            rel=mod.rel, lineno=call.lineno, sink_kind=sk,
                            kinds=kinds,
                            via=(f"arg {i} of {'.'.join(call.chain)}() "
                                 f"reaches the sink at {rel}:{ln}"),
                            function=key,
                        ))
            if fn.name in self._return_sink_names:
                kinds = real(self._deps_taint(key, fn, fn.returns, name_taint,
                                              param_syms))
                if kinds:
                    out.append(TaintFinding(
                        rel=mod.rel, lineno=fn.lineno,
                        sink_kind=self._return_sink_kind(fn.name),
                        kinds=kinds, via=f"return value of {fn.qualname}",
                        function=key,
                    ))
        return out

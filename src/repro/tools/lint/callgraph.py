"""Project-wide program index: classes, functions, types, call targets.

The analyzer needs to answer "which function does this call reach" and
"what class is this expression an instance of" *without executing
anything*.  Resolution is name- and annotation-based:

* parameter / return annotations (``store: PageStore``) type names,
* constructor assignments of project classes
  (``self.cache = CacheManager(...)``),
* imports (aliased or ``from``-style) resolve dotted references,
* ``self.m()`` resolves through the class and its project bases,
* calls on an annotated receiver resolve to the declaring class *and*
  every project subclass override (virtual dispatch is approximated
  conservatively — a call through ``PageStore.read`` reaches every
  concrete ``read``).

Anything the index cannot resolve is simply dropped from the call
graph: a call through a callback or a dynamically chosen object is a
blind spot, so the rules built on the index under-report rather than
guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.tools.lint.locks import self_attribute
from repro.tools.lint.model import SourceFile

__all__ = ["FunctionInfo", "ClassInfo", "ProgramIndex"]

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})


@dataclass
class FunctionInfo:
    """One function or method definition."""

    key: str       # "repro.core.cache:CacheManager.get"
    module: str
    qualname: str  # "CacheManager.get" or "local_gather"
    cls_key: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    #: Locally defined nested functions, by name.
    nested: dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def display(self) -> str:
        return f"{self.module.split('.', 1)[-1]}.{self.qualname}"


@dataclass
class ClassInfo:
    """One class definition plus the facts rules need about it."""

    key: str   # "repro.core.cache.CacheManager"
    module: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    base_keys: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> type key ("repro.x.Cls" or an external dotted name).
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attr -> qualname of the lock created on it
    #: (``self._lock = threading.Lock()``).  Per-instance locks are
    #: conflated per declaring class, as is standard for static lock
    #: analysis: ``repro.core.cache.CacheManager._lock`` names the
    #: attribute, not one instance's lock.
    locks: dict[str, str] = field(default_factory=dict)


class ProgramIndex:
    """Everything the rule passes query, built in one pass over sources."""

    def __init__(self, sources: list[SourceFile]) -> None:
        self.sources = sources
        self.modules: dict[str, SourceFile] = {s.module: s for s in sources}
        #: module -> (alias -> dotted module) and (name -> (module, symbol)).
        self._mod_imports: dict[str, dict[str, str]] = {}
        self._sym_imports: dict[str, dict[str, tuple[str, str]]] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._module_funcs: dict[tuple[str, str], FunctionInfo] = {}
        #: class key -> direct project subclasses.
        self.children: dict[str, list[str]] = {}
        #: module-level locks: (module, name) -> qualname.
        self.module_locks: dict[tuple[str, str], str] = {}
        self._env_cache: dict[str, dict[str, str]] = {}

        for source in sources:
            self._collect_imports(source)
        for source in sources:
            self._collect_definitions(source)
        self._resolve_bases()
        for info in list(self.classes.values()):
            self._collect_class_facts(info)

    # -- construction -------------------------------------------------------

    def _collect_imports(self, source: SourceFile) -> None:
        mods: dict[str, str] = {}
        syms: dict[str, tuple[str, str]] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mods[alias.asname] = alias.name
                    else:
                        mods[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = source.module.split(".")
                    # level 1 = the containing package of this module.
                    anchor = parts[: len(parts) - node.level]
                    if source.path.name == "__init__.py":
                        anchor = parts[: len(parts) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    syms[alias.asname or alias.name] = (base, alias.name)
        self._mod_imports[source.module] = mods
        self._sym_imports[source.module] = syms

    def _collect_definitions(self, source: SourceFile) -> None:
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                key = f"{source.module}.{node.name}"
                info = ClassInfo(
                    key=key, module=source.module, name=node.name,
                    node=node, source=source,
                )
                self.classes[key] = info
                self.classes_by_name.setdefault(node.name, []).append(key)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._register_function(source, item, info)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(source, node, None)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if self._is_lock_factory(node.value, source.module):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.module_locks[(source.module, target.id)] = (
                                f"{source.module}.{target.id}"
                            )

    def _register_function(
        self,
        source: SourceFile,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
    ) -> None:
        qualname = f"{cls.name}.{node.name}" if cls is not None else node.name
        info = FunctionInfo(
            key=f"{source.module}:{qualname}",
            module=source.module,
            qualname=qualname,
            cls_key=cls.key if cls is not None else None,
            node=node,
            source=source,
        )
        self.functions[info.key] = info
        if cls is not None:
            cls.methods[node.name] = info
        else:
            self._module_funcs[(source.module, node.name)] = info
        for child in ast.walk(node):
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not node
            ):
                nested = FunctionInfo(
                    key=f"{info.key}.<locals>.{child.name}",
                    module=source.module,
                    qualname=f"{qualname}.<locals>.{child.name}",
                    cls_key=info.cls_key,
                    node=child,
                    source=source,
                )
                info.nested[child.name] = nested
                self.functions[nested.key] = nested

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for base in info.node.bases:
                key = self._resolve_type_expr(base, info.module)
                if key is not None:
                    info.base_keys.append(key)
                    self.children.setdefault(key, []).append(info.key)

    def _collect_class_facts(self, info: ClassInfo) -> None:
        """Attribute types and lock creations, from every method body."""
        for method in info.methods.values():
            env = self._param_env(method)
            for node in ast.walk(method.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                for target in targets:
                    attr = self_attribute(target)
                    if attr is None:
                        continue
                    if isinstance(node, ast.AnnAssign):
                        key = self._resolve_type_expr(node.annotation, info.module)
                        if key is not None:
                            info.attr_types.setdefault(attr, key)
                    if value is None:
                        continue
                    if isinstance(value, ast.Call) and self._is_lock_factory(
                        value, info.module
                    ):
                        info.locks.setdefault(attr, f"{info.key}.{attr}")
                        continue
                    inferred = self._typeof_shallow(value, info.module, env)
                    if inferred is not None:
                        info.attr_types.setdefault(attr, inferred)
        # Class-body annotations (`x: SomeType` / `x: SomeType = ...`).
        for node in info.node.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                key = self._resolve_type_expr(node.annotation, info.module)
                if key is not None:
                    info.attr_types.setdefault(node.target.id, key)

    # -- name & type resolution ---------------------------------------------

    def _is_lock_factory(self, call: ast.Call, module: str) -> bool:
        """Whether the call is ``threading.Lock()``/``RLock()``/``Condition()``."""
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = self._mod_imports.get(module, {}).get(func.value.id)
            return target == "threading" and func.attr in _LOCK_FACTORIES
        if isinstance(func, ast.Name):
            sym = self._sym_imports.get(module, {}).get(func.id)
            return sym is not None and sym[0] == "threading" and (
                sym[1] in _LOCK_FACTORIES
            )
        return False

    def _resolve_type_expr(self, expr: ast.expr, module: str) -> str | None:
        """An annotation / base-class expression -> the project class key
        it names, or None."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(expr, ast.Name):
            name = expr.id
            sym = self._sym_imports.get(module, {}).get(name)
            if sym is not None:
                if sym[0] in self.modules and f"{sym[0]}.{sym[1]}" in self.classes:
                    return f"{sym[0]}.{sym[1]}"
                # Re-exported project class (`from repro.core import X`)?
                for candidate in self.classes_by_name.get(sym[1], []):
                    if candidate.startswith(sym[0]):
                        return candidate
                return None
            if f"{module}.{name}" in self.classes:
                return f"{module}.{name}"
            keys = self.classes_by_name.get(name, [])
            if len(keys) == 1:
                return keys[0]
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            target = self._mod_imports.get(module, {}).get(expr.value.id)
            key = f"{target}.{expr.attr}"
            return key if target is not None and key in self.classes else None
        if isinstance(expr, ast.Subscript):
            # Optional[X] -> X; other generics name containers, skip.
            base = expr.value
            if isinstance(base, ast.Name) and base.id == "Optional":
                return self._resolve_type_expr(expr.slice, module)
            return None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            for side in (expr.left, expr.right):
                if isinstance(side, ast.Constant) and side.value is None:
                    continue
                key = self._resolve_type_expr(side, module)
                if key is not None:
                    return key
            return None
        return None

    def _param_env(self, func: FunctionInfo) -> dict[str, str]:
        env: dict[str, str] = {}
        if func.cls_key is not None:
            env["self"] = func.cls_key
        args = func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                key = self._resolve_type_expr(arg.annotation, func.module)
                if key is not None:
                    env[arg.arg] = key
        return env

    def env_for(self, func: FunctionInfo) -> dict[str, str]:
        """name -> type key for a function's locals (flow-insensitive)."""
        cached = self._env_cache.get(func.key)
        if cached is not None:
            return cached
        env = self._param_env(func)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id not in env:
                    inferred = self._typeof_shallow(node.value, func.module, env)
                    if inferred is not None:
                        env[target.id] = inferred
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                key = self._resolve_type_expr(node.annotation, func.module)
                if key is not None:
                    env.setdefault(node.target.id, key)
        self._env_cache[func.key] = env
        return env

    def _typeof_shallow(
        self, expr: ast.expr, module: str, env: dict[str, str]
    ) -> str | None:
        """Type of an expression, without re-entering ``env_for``."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._typeof_shallow(expr.value, module, env)
            if base is not None:
                return self._attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            ctor = self._resolve_type_expr(expr.func, module)
            if ctor is not None:
                return ctor
            targets = self.resolve_call_targets(expr, module, env, cls_key=None)
            for target in targets:
                returns = target.node.returns
                if returns is not None:
                    key = self._resolve_type_expr(returns, target.module)
                    if key is not None:
                        return key
            return None
        if isinstance(expr, ast.IfExp):
            return self._typeof_shallow(
                expr.body, module, env
            ) or self._typeof_shallow(expr.orelse, module, env)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                key = self._typeof_shallow(value, module, env)
                if key is not None:
                    return key
        return None

    def _attr_type(self, cls_key: str, attr: str) -> str | None:
        for key in self._mro(cls_key):
            info = self.classes.get(key)
            if info is not None and attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def _mro(self, cls_key: str) -> list[str]:
        """The class plus project ancestors, breadth-first (approximate)."""
        seen: list[str] = []
        queue = [cls_key]
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.append(key)
            info = self.classes.get(key)
            if info is not None:
                queue.extend(info.base_keys)
        return seen

    def _descendants(self, cls_key: str) -> list[str]:
        out: list[str] = []
        queue = list(self.children.get(cls_key, []))
        while queue:
            key = queue.pop(0)
            if key in out:
                continue
            out.append(key)
            queue.extend(self.children.get(key, []))
        return out

    # -- call resolution ----------------------------------------------------

    def method_targets(self, cls_key: str, name: str) -> list[FunctionInfo]:
        """Implementations a ``<C>.name()`` call may reach.

        The MRO definition plus every project subclass override —
        virtual dispatch through an abstract base (``PageStore.read``)
        reaches all concrete implementations.
        """
        targets: list[FunctionInfo] = []
        for key in self._mro(cls_key):
            info = self.classes.get(key)
            if info is not None and name in info.methods:
                targets.append(info.methods[name])
                break
        for key in self._descendants(cls_key):
            info = self.classes.get(key)
            if info is not None and name in info.methods:
                method = info.methods[name]
                if method not in targets:
                    targets.append(method)
        return targets

    def resolve_call_targets(
        self,
        call: ast.Call,
        module: str,
        env: dict[str, str],
        cls_key: str | None,
        caller: FunctionInfo | None = None,
    ) -> list[FunctionInfo]:
        """Project functions this call expression may invoke."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if caller is not None and name in caller.nested:
                return [caller.nested[name]]
            sym = self._sym_imports.get(module, {}).get(name)
            if sym is not None:
                target = self._module_funcs.get(sym)
                if target is not None:
                    return [target]
                class_key = f"{sym[0]}.{sym[1]}"
                if class_key in self.classes:
                    init = self.classes[class_key].methods.get("__init__")
                    return [init] if init is not None else []
                return []
            local = self._module_funcs.get((module, name))
            if local is not None:
                return [local]
            if f"{module}.{name}" in self.classes:
                init = self.classes[f"{module}.{name}"].methods.get("__init__")
                return [init] if init is not None else []
            return []
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                target_module = self._mod_imports.get(module, {}).get(receiver.id)
                if target_module is not None and target_module in self.modules:
                    found = self._module_funcs.get((target_module, func.attr))
                    if found is not None:
                        return [found]
                    class_key = f"{target_module}.{func.attr}"
                    if class_key in self.classes:
                        init = self.classes[class_key].methods.get("__init__")
                        return [init] if init is not None else []
                    return []
            base = self._typeof_shallow(receiver, module, env)
            if base is not None:
                return self.method_targets(base, func.attr)
            return []
        return []

    # -- lock resolution ----------------------------------------------------

    def lock_for_attr(self, cls_key: str, attr: str) -> str | None:
        for key in self._mro(cls_key):
            info = self.classes.get(key)
            if info is not None and attr in info.locks:
                return info.locks[attr]
        return None

    def lock_for_expr(
        self, expr: ast.expr, func: FunctionInfo, env: dict[str, str]
    ) -> str | None:
        """The lock a ``with <expr>:`` statement acquires, if any."""
        if isinstance(expr, ast.Attribute):
            base = self._typeof_shallow(expr.value, func.module, env)
            if base is not None:
                return self.lock_for_attr(base, expr.attr)
            return None
        if isinstance(expr, ast.Name):
            direct = self.module_locks.get((func.module, expr.id))
            if direct is not None:
                return direct
            sym = self._sym_imports.get(func.module, {}).get(expr.id)
            if sym is not None:
                return self.module_locks.get(sym)
        return None

    def all_locks(self) -> set[str]:
        locks = set(self.module_locks.values())
        for info in self.classes.values():
            locks.update(info.locks.values())
        return locks

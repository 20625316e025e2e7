"""RL4xx — state-coverage rules over the durability layer.

Resume is only byte-identical if every piece of mutable state crosses
the capture/restore boundary.  These rules prove that
statically, on top of the mutation-effect lattice the fixpoint
(:mod:`repro.lint.fixpoint`) computes:

* **RL401** — snapshot coverage.  Any class exposing an
  ``export_*``/``install_*`` (or ``adopt_*``) protocol must read every
  mutable attribute in the export path and write it back in the
  install path.  ``self.__dict__``-based snapshots cover everything
  except the names listed in a class-level constant the export reads
  (a skip list); skipped-but-mutated attributes are flagged so every
  exception carries an explicit pragma justification.  Module-level
  ``capture_X``/``install_X`` pairs returning dict literals are
  cross-checked key-by-key, and ``*Checkpoint`` dataclasses must have
  every field passed explicitly at each construction site and consumed
  somewhere in the defining module.
* **RL403** — journal codec discipline.  Inside ``repro/journal/``,
  payloads handed to a frame append must be produced by the approved
  codec (``encode_*`` functions, or ``json.dumps``) — never by raw
  ``repr()``/``pickle.dumps``/``marshal.dumps`` inline — and frame
  payloads must be decoded only inside ``decode_*`` functions (no
  stray ``literal_eval``/``pickle.loads``/``eval``).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, ProjectRule
from repro.lint.taint import attr_chain, terminal_base

_CAPTURE_NAME = re.compile(r"^_?capture_(\w+)$")

#: Frame-append method names in the journal layer.
_FRAME_APPENDS = frozenset({"_write_frame", "write_frame", "append_frame"})
#: Encoders banned outside ``encode_*`` codec functions.
_RAW_ENCODERS_DOTTED = frozenset({"pickle.dumps", "marshal.dumps"})
#: Decoders banned outside ``decode_*`` codec functions.
_RAW_DECODERS_DOTTED = frozenset({
    "ast.literal_eval", "pickle.loads", "marshal.loads",
})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute)
                else None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    fields: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            fields.append(stmt.target.id)
    return fields


def _ctor_missing_fields(call: ast.Call,
                         fields: List[str]) -> List[str]:
    """Fields not passed explicitly; empty when the call is dynamic."""
    provided: Set[str] = set()
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return []
        if index < len(fields):
            provided.add(fields[index])
    for keyword in call.keywords:
        if keyword.arg is None:
            return []
        provided.add(keyword.arg)
    return [name for name in fields if name not in provided]


def _attr_loads(tree: ast.AST) -> Set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _self_attr_loads(fn_node: ast.AST) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load):
            chain = attr_chain(node)
            if len(chain) >= 2 and chain[0] == "self":
                reads.add(chain[1])
    return reads


def _class_const_collections(node: ast.ClassDef) -> Dict[str, Set[str]]:
    """Class-body names bound to literal string collections."""
    consts: Dict[str, Set[str]] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and len(value.args) == 1
                and not value.keywords
                and isinstance(value.func, ast.Name)
                and value.func.id in ("frozenset", "set", "tuple",
                                      "list")):
            value = value.args[0]
        if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            continue
        if not all(isinstance(e, ast.Constant)
                   and isinstance(e.value, str) for e in value.elts):
            continue
        names = {e.value for e in value.elts}
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                consts[target.id] = names
    return consts


class _ClassView:
    """One class plus its method FunctionInfos and summaries."""

    def __init__(self, graph, info, cls) -> None:
        self.graph = graph
        self.info = info
        self.cls = cls
        self.methods = {
            fn.name: fn for fn in info.functions.values()
            if fn.cls == cls.name
        }

    def summary(self, method_name: str):
        fn = self.methods.get(method_name)
        if fn is None:
            return None
        return self.graph.summaries.get(fn.qname)

    def closure(self, method_name: str) -> List[str]:
        """Same-class methods reachable from ``method_name`` via
        ``self.*()`` calls (the resolved call graph)."""
        prefix = f"{self.info.module}.{self.cls.name}."
        seen: Set[str] = set()
        queue = [method_name]
        order: List[str] = []
        while queue:
            name = queue.pop()
            if name in seen or name not in self.methods:
                continue
            seen.add(name)
            order.append(name)
            qname = self.methods[name].qname
            for callee in sorted(self.graph.calls.get(qname, ())):
                if callee.startswith(prefix):
                    queue.append(callee[len(prefix):])
        return order


class SnapshotCoverageRule(ProjectRule):
    """RL401 — mutable state must cross the snapshot boundary."""

    rule_id = "RL401"
    severity = Severity.ERROR
    description = ("snapshot-protocol classes must export and install "
                   "every mutable attribute")
    hint = ("thread the attribute through export_*/install_* (and the "
            "checkpoint dataclass), or pragma it with the reason it is "
            "safe to drop across a resume")

    def run_project(self, graph) -> Iterator[Finding]:
        for module in sorted(graph.modules):
            info = graph.modules[module]
            yield from self._check_classes(graph, info)
            yield from self._check_capture_pairs(graph, info)
            yield from self._check_checkpoint_dataclasses(graph, info)

    # -- export_*/install_* protocol classes ---------------------------
    def _check_classes(self, graph, info) -> Iterator[Finding]:
        for cls_name in sorted(info.classes):
            cls = info.classes[cls_name]
            view = _ClassView(graph, info, cls)
            exports = sorted(n for n in view.methods
                             if n.startswith("export"))
            installs = sorted(n for n in view.methods
                              if n.startswith(("install", "adopt")))
            if not exports or not installs:
                continue
            snapshot_methods = set(exports) | set(installs)
            mutated: Set[str] = set()
            for name in sorted(view.methods):
                if name == "__init__" or name in snapshot_methods:
                    continue
                summary = view.summary(name)
                if summary is not None:
                    mutated |= summary.self_writes
            consts = _class_const_collections(cls.node)
            export_reads: Set[str] = set()
            for name in exports:
                for member in view.closure(name):
                    export_reads |= _self_attr_loads(
                        view.methods[member].node)
            install_writes: Set[str] = set()
            for name in installs:
                summary = view.summary(name)
                if summary is not None:
                    install_writes |= summary.self_writes
                install_writes |= {
                    read for read in _self_attr_loads(
                        view.methods[name].node)
                    if read == "__dict__"}
            skip: Set[str] = set()
            for const_name, names in sorted(consts.items()):
                if const_name in export_reads | install_writes:
                    skip |= names
            export_dynamic = "__dict__" in export_reads
            install_dynamic = "__dict__" in install_writes
            for attr in sorted(mutated):
                if attr.startswith("__"):
                    continue
                export_ok = attr in export_reads or (
                    export_dynamic and attr not in skip)
                install_ok = attr in install_writes or (
                    install_dynamic and attr not in skip)
                if export_ok and install_ok:
                    continue
                missing = []
                if not export_ok:
                    missing.append(f"{'/'.join(exports)} read")
                if not install_ok:
                    missing.append(f"{'/'.join(installs)} write")
                yield info.ctx.finding(
                    self, cls.node,
                    f"mutable attribute '{attr}' of {cls.name} is not "
                    f"covered by the snapshot protocol (missing: "
                    f"{', '.join(missing)})")

    # -- module-level capture_X/install_X dict pairs -------------------
    def _check_capture_pairs(self, graph, info) -> Iterator[Finding]:
        functions = {name: fn for name, fn in info.functions.items()
                     if fn.cls is None}
        for name in sorted(functions):
            match = _CAPTURE_NAME.match(name)
            if match is None:
                continue
            suffix = match.group(1)
            install = functions.get(f"install_{suffix}") or \
                functions.get(f"_install_{suffix}")
            if install is None:
                continue
            captured = self._captured_keys(functions[name].node)
            if captured is None:
                continue
            installed = self._installed_keys(install.node)
            for key in sorted(captured - installed):
                yield info.ctx.finding(
                    self, functions[name].node,
                    f"{name}() captures key '{key}' that "
                    f"{install.name}() never installs")
            for key in sorted(installed - captured):
                yield info.ctx.finding(
                    self, install.node,
                    f"{install.name}() installs key '{key}' that "
                    f"{name}() never captures")

    @staticmethod
    def _captured_keys(fn_node: ast.AST) -> Optional[Set[str]]:
        """Union of constant keys over dict-literal returns; None when
        no return is a plain dict literal (comprehensions etc.)."""
        keys: Optional[Set[str]] = None
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Return) or not isinstance(
                    node.value, ast.Dict):
                continue
            literal: Set[str] = set()
            for key in node.value.keys:
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    return None
                literal.add(key.value)
            keys = (keys or set()) | literal
        return keys

    @staticmethod
    def _installed_keys(fn_node: ast.AST) -> Set[str]:
        params = {a.arg for a in (fn_node.args.posonlyargs
                                  + fn_node.args.args
                                  + fn_node.args.kwonlyargs)}
        keys: Set[str] = set()
        for node in ast.walk(fn_node):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in params
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                keys.add(node.slice.value)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in params
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                keys.add(node.args[0].value)
        return keys

    # -- *Checkpoint dataclasses ---------------------------------------
    def _check_checkpoint_dataclasses(self, graph,
                                      info) -> Iterator[Finding]:
        yield from _check_record_dataclasses(
            self, graph, info, suffix="Checkpoint", noun="checkpoint")


def _check_record_dataclasses(rule, graph, info, suffix: str,
                              noun: str) -> Iterator[Finding]:
    """RL401's check for capture-record dataclasses:
    every field passed explicitly at each construction site, every
    field consumed somewhere in the defining module."""
    targets = [cls for name, cls in sorted(info.classes.items())
               if name.endswith(suffix)
               and isinstance(cls.node, ast.ClassDef)
               and _is_dataclass(cls.node)]
    if not targets:
        return
    module_reads = _attr_loads(info.ctx.tree)
    for cls in targets:
        fields = _dataclass_fields(cls.node)
        for field_name in fields:
            if field_name not in module_reads:
                yield info.ctx.finding(
                    rule, cls.node,
                    f"{noun} field '{cls.name}.{field_name}' is "
                    f"captured but never consumed in "
                    f"{info.module} — restore silently drops it")
        for ctor_info, caller, call in _construction_sites(graph, cls):
            missing = _ctor_missing_fields(call, fields)
            for field_name in missing:
                yield ctor_info.ctx.finding(
                    rule, call,
                    f"{noun} field '{cls.name}.{field_name}' not "
                    f"passed explicitly at this construction site "
                    f"(silently defaulted)")


def _construction_sites(graph, cls) -> Iterator[Tuple]:
    """(module info, enclosing fn, call) for every resolved ctor."""
    for module in sorted(graph.modules):
        info = graph.modules[module]
        for fn in info.functions.values():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    if graph.resolve_class(info, node) is cls:
                        yield info, fn, node


class JournalCodecRule(ProjectRule):
    """RL403 — WAL frames round-trip through the approved codec."""

    rule_id = "RL403"
    severity = Severity.ERROR
    description = ("journal frame payloads must use the approved "
                   "codec, never inline repr/pickle round-trips")
    hint = ("build frame payloads with encode_*() (or json.dumps) and "
            "decode them only inside decode_*() codec functions")

    _SCOPE = "repro/journal/"

    def run_project(self, graph) -> Iterator[Finding]:
        for module in sorted(graph.modules):
            info = graph.modules[module]
            if not info.path.startswith(self._SCOPE):
                continue
            yield from self._check_module(info)

    def _check_module(self, info) -> Iterator[Finding]:
        codec_fns = {fn.node for fn in info.functions.values()
                     if fn.name.startswith(("encode_", "decode_"))}
        for fn in sorted(info.functions.values(),
                         key=lambda f: f.qname):
            if fn.node in codec_fns:
                continue
            yield from self._check_function(info.ctx, fn.node)
        # Module top level (rare, but decode loops can live there).
        top = ast.Module(
            body=[stmt for stmt in info.ctx.tree.body
                  if not isinstance(stmt, (ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.ClassDef))],
            type_ignores=[])
        yield from self._check_function(info.ctx, top)

    def _check_function(self, ctx: ModuleContext,
                        fn_node: ast.AST) -> Iterator[Finding]:
        assigns: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.setdefault(target.id, []).append(
                            node.value)
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name)
                    else None)
            if name in _FRAME_APPENDS:
                for arg in node.args:
                    for origin, banned in self._raw_encodings(
                            ctx, arg, assigns):
                        yield ctx.finding(
                            self, origin,
                            f"frame payload built with raw {banned} "
                            f"outside the codec")
            for banned_node, banned in self._raw_decodes(ctx, node):
                yield ctx.finding(
                    self, banned_node,
                    f"frame payload decoded with raw {banned} outside "
                    f"a decode_*() codec function")

    @staticmethod
    def _raw_encodings(ctx: ModuleContext, arg: ast.AST,
                       assigns: Dict[str, List[ast.AST]]
                       ) -> Iterator[Tuple[ast.AST, str]]:
        trees: List[ast.AST] = [arg]
        if isinstance(arg, ast.Name):
            trees.extend(assigns.get(arg.id, ()))
        for tree in trees:
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "repr":
                    yield node, "repr()"
                    continue
                dotted = ctx.resolve(func)
                if dotted in _RAW_ENCODERS_DOTTED:
                    yield node, f"{dotted}()"
                    continue
                if (isinstance(func, ast.Attribute)
                        and func.attr == "dumps"
                        and terminal_base(func.value) in (
                            "pickle", "marshal")):
                    yield node, f"{terminal_base(func.value)}.dumps()"

    @staticmethod
    def _raw_decodes(ctx: ModuleContext, call: ast.Call
                     ) -> Iterator[Tuple[ast.AST, str]]:
        func = call.func
        dotted = ctx.resolve(func)
        if dotted in _RAW_DECODERS_DOTTED:
            yield call, f"{dotted}()"
            return
        if isinstance(func, ast.Name):
            if func.id == "eval":
                yield call, "eval()"
            elif func.id == "literal_eval" and dotted is None:
                yield call, "literal_eval()"
        elif (isinstance(func, ast.Attribute)
              and func.attr in ("loads", "literal_eval")
              and terminal_base(func.value) in ("pickle", "marshal",
                                                "ast")):
            yield call, f"{terminal_base(func.value)}.{func.attr}()"

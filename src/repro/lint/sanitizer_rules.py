"""RL6xx — sanitizer-coverage rules over the determinism surface.

The reprosan shadow trace (:mod:`repro.sanitizer`) only bisects
divergences it *saw*: a draw from a raw ``random.Random`` constructed
outside the instrumented factory, or a stream wound by a stray
``setstate``, is a blind spot that reappears as an unexplainable
end-of-run digest mismatch.  These rules keep the hook surface
airtight statically:

* **RL601** — raw ``random.Random(...)`` construction outside the
  factory shell.  Every campaign stream must come from
  ``RngFactory.stream()``/``fresh()`` so the sanitizer proxy can see
  the draws; a hand-rolled generator is invisible to the trace.
  Detector-side fixed-seed samplers that never touch the campaign
  surface carry a pragma with that justification.  Import-time
  construction (module or class body) is RL201's finding; this rule
  owns the runtime sites.
* **RL602** — ``getstate()``/``setstate()`` outside the
  factory/sanitizer shells.  Winding a generator behind the trace's
  back desynchronises the shadow stream from the real one; state
  transfer is ``RngFactory.export_states``/``install_states``'s job.
* **RL604** — hook laundering.  Code outside the shells must not
  reach into the factory/proxy internals (``._streams``,
  ``._wrapped``, ``._raw``, or ``getattr`` with those names) — and,
  via the fixpoint call graph, must not call a helper that does.  A
  pragma on the helper silences the site, not the capability; every
  caller is flagged independently.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.lint.contracts import (
    _calls_outside_defs,
    _module_scope_statements,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, ProjectRule, Rule

#: The modules sanctioned to touch raw generators and proxy internals:
#: the factory itself and the sanitizer package (whose hooks are the
#: instrumentation).
SANITIZER_SHELLS = ("repro/sim/rng.py", "repro/sanitizer/")

#: Factory/proxy internals whose access outside the shells launders
#: draws past the instrumentation.
_HOOK_INTERNALS = frozenset({"_streams", "_wrapped", "_raw"})


def _in_shell(path: str) -> bool:
    return any(path.startswith(prefix) for prefix in SANITIZER_SHELLS)


class RawStreamConstructionRule(Rule):
    """RL601 — streams must be born inside the instrumented factory."""

    rule_id = "RL601"
    severity = Severity.ERROR
    description = ("raw random.Random construction outside the "
                   "instrumented factory surface")
    hint = ("draw from world.rng.stream(name)/fresh(name) so the "
            "sanitizer sees every draw; a hand-rolled generator is "
            "invisible to divergence bisection")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Import-time construction is RL201's finding (shared
        # module-scope state); this rule owns the runtime sites.
        import_time = {
            id(call)
            for stmt in _module_scope_statements(ctx.tree)
            for call in _calls_outside_defs(stmt)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in import_time:
                continue
            if ctx.resolve(node.func) == "random.Random":
                yield ctx.finding(
                    self, node,
                    "random.Random(...) constructed outside the "
                    "factory; its draws bypass the sanitizer trace")


class StreamStateTransferRule(Rule):
    """RL602 — generator state moves only through the factory."""

    rule_id = "RL602"
    severity = Severity.ERROR
    description = ("getstate/setstate outside the factory/sanitizer "
                   "shells")
    hint = ("transfer stream state with RngFactory.export_states()/"
            "install_states(); winding a generator directly "
            "desynchronises the shadow trace")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("getstate", "setstate")):
                continue
            # ``random.getstate()`` (module-global state) is RL002's
            # finding; this rule owns per-generator transfer.
            if ctx.resolve(func) in ("random.getstate",
                                     "random.setstate"):
                continue
            yield ctx.finding(
                self, node,
                f".{func.attr}() outside the factory shell moves "
                "generator state behind the sanitizer's back")


class HookLaunderingRule(ProjectRule):
    """RL604 — hook internals stay inside the shells, even one hop out."""

    rule_id = "RL604"
    severity = Severity.ERROR
    description = ("factory/proxy internals accessed (directly or via "
                   "a helper) outside the sanitizer shells")
    hint = ("go through the public factory surface (stream()/fresh()/"
            "export_states()); reaching into _streams/_wrapped/_raw "
            "hands out generators the trace cannot see")

    def run_project(self, graph) -> Iterator[Finding]:
        primitives = self._primitive_functions(graph)
        launderers = self._transitive(graph, primitives)
        for module in sorted(graph.modules):
            info = graph.modules[module]
            if _in_shell(info.path):
                continue
            for node, why in self._direct_accesses(info.ctx,
                                                   info.ctx.tree):
                yield info.ctx.finding(
                    self, node, f"{why} outside the sanitizer shells")
            yield from self._check_laundering(graph, info, launderers)

    # -- direct access -------------------------------------------------
    @staticmethod
    def _direct_accesses(ctx: ModuleContext, tree: ast.AST):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in _HOOK_INTERNALS):
                yield node, f"access to hook internal .{node.attr}"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "setattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in _HOOK_INTERNALS):
                yield (node, f"{node.func.id}(..., "
                             f"{node.args[1].value!r}) launders a hook "
                             f"internal through dynamic lookup")

    # -- helper laundering over the fixpoint call graph ----------------
    def _primitive_functions(self, graph) -> Set[str]:
        """qnames of non-shell functions that touch hook internals."""
        found: Set[str] = set()
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if _in_shell(fn.path):
                continue
            fn_info = graph.by_path.get(fn.path)
            if fn_info is None:
                continue
            for _node, _why in self._direct_accesses(fn_info.ctx,
                                                     fn.node):
                found.add(qname)
                break
        return found

    @staticmethod
    def _transitive(graph, primitives: Set[str]) -> Dict[str, str]:
        """fn qname -> the primitive it (transitively) reaches."""
        reaches: Dict[str, str] = {qname: qname for qname in primitives}
        changed = True
        while changed:
            changed = False
            for qname in sorted(graph.calls):
                if qname in reaches:
                    continue
                fn = graph.functions.get(qname)
                if fn is not None and _in_shell(fn.path):
                    continue    # shell helpers are the sanctioned route
                for callee in sorted(graph.calls.get(qname, ())):
                    target = reaches.get(callee)
                    if target is not None:
                        reaches[qname] = target
                        changed = True
                        break
        return reaches

    def _check_laundering(self, graph, info,
                          launderers: Dict[str, str]
                          ) -> Iterator[Finding]:
        for fn in sorted(info.functions.values(),
                         key=lambda f: f.qname):
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                callee = graph.resolve_call(info, fn, call)
                if callee is None or _in_shell(callee.path):
                    continue
                primitive = launderers.get(callee.qname)
                if primitive is None:
                    continue
                yield info.ctx.finding(
                    self, call,
                    f"call launders hook internals through "
                    f"{callee.qname}() (reaches {primitive}())")


def sanitizer_rules() -> List[Rule]:
    return [RawStreamConstructionRule(), StreamStateTransferRule(),
            HookLaunderingRule()]

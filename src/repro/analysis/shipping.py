"""R3 — shipping contract: ``worker_payload`` round-trips statically.

The process backend and the cluster tier rebuild distributions on the far
side of a pickle/socket boundary from ``worker_payload()`` (producing
``(arrays, params)`` dicts) via ``from_worker_payload(arrays, params)``.
A key mismatch between the two — a renamed array, a param consumed but never
shipped — corrupts samples only under the process backend, and only for the
distribution class that drifted, which is exactly the kind of bug seed tests
on the default backend never see.

R3 requires, for every class on which ``worker_payload`` is visible (own or
via same-module bases):

* a visible ``from_worker_payload`` (and an ``oracle_cost_hint`` stating
  the shipped kernel's structure);
* every payload key *consumed* by ``from_worker_payload`` (string subscript
  reads, ``.get("k")``, ``"k" in x`` membership probes) to be *produced*
  somewhere in ``worker_payload`` — dict-literal keys, ``d["k"] = ...``
  assignments, or the keys of a visible ``self._helper()`` the return
  statement delegates to.  Extra produced keys are fine — consumers may
  ignore warm artifacts; consuming a key that is never produced is the bug.

Mixins are checked through their subclasses: a class that is itself
subclassed in the module and lacks half the contract is skipped (its
concrete subclasses carry the obligation).  Dynamic payload construction
(``**spread``, computed keys, delegation to unresolvable callables) makes a
class opaque to the key check; method-presence requirements still apply.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Union

from repro.analysis.report import Violation
from repro.analysis.rulebase import Rule, RuleContext, dotted_name

__all__ = ["ShippingContractRule"]

#: either flavor of method definition (bodies are walked identically)
_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _own_methods(cls: ast.ClassDef) -> Dict[str, _FuncDef]:
    return {stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _resolved_methods(cls: ast.ClassDef,
                      module_classes: Dict[str, ast.ClassDef]) -> Dict[str, _FuncDef]:
    """Methods visible on ``cls`` (name -> def), subclass definitions winning."""
    resolved: Dict[str, _FuncDef] = {}
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in module_classes:
            base_cls = module_classes[base.id]
            if base_cls is not cls:
                resolved.update(_resolved_methods(base_cls, module_classes))
    resolved.update(_own_methods(cls))
    return resolved


def _produced_keys(func: _FuncDef, methods: Dict[str, _FuncDef],
                   seen: Set[str]) -> Optional[Set[str]]:
    """String keys the payload builder emits; ``None`` when dynamic/opaque."""
    keys: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                elif key is None:
                    return None  # ``**spread`` — opaque
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    if (isinstance(target.slice, ast.Constant)
                            and isinstance(target.slice.value, str)):
                        keys.add(target.slice.value)
                    else:
                        return None  # computed key — opaque
        elif isinstance(node, ast.Return) and node.value is not None:
            components = (node.value.elts if isinstance(node.value, ast.Tuple)
                          else [node.value])
            for component in components:
                if isinstance(component, (ast.Dict, ast.Name, ast.Constant)):
                    continue  # literals counted above; names built via writes
                if isinstance(component, ast.Call):
                    name = dotted_name(component.func)
                    parts = name.split(".") if name else []
                    if (len(parts) == 2 and parts[0] in ("self", "cls")
                            and parts[1] in methods and parts[1] not in seen):
                        sub = _produced_keys(methods[parts[1]], methods,
                                             seen | {parts[1]})
                        if sub is None:
                            return None
                        keys |= sub
                        continue
                return None  # delegation we cannot resolve — opaque
    return keys


def _consumed_keys(func: _FuncDef) -> Iterator[ast.AST]:
    """Yield one node per string payload-key consumption site."""
    for node in ast.walk(func):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            yield node
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and isinstance(node.left, ast.Constant)
              and isinstance(node.left.value, str)):
            yield node


def _key_of(node: ast.AST) -> str:
    # shapes guaranteed by _consumed_keys; the isinstance chains re-narrow
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return str(node.slice.value)
    if isinstance(node, ast.Call) and isinstance(node.args[0], ast.Constant):
        return str(node.args[0].value)
    if isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant):
        return str(node.left.value)
    raise AssertionError(f"unexpected consumption site {ast.dump(node)}")


class ShippingContractRule(Rule):
    id = "R3"
    summary = ("shipping contract: worker_payload implies from_worker_payload "
               "+ oracle_cost_hint with statically consistent payload keys")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        module_classes = {node.name: node for node in ctx.tree.body
                          if isinstance(node, ast.ClassDef)}
        subclassed: Set[str] = set()
        for cls in module_classes.values():
            for base in cls.bases:
                if isinstance(base, ast.Name) and base.id in module_classes:
                    subclassed.add(base.id)
        for cls in module_classes.values():
            methods = _resolved_methods(cls, module_classes)
            payload = methods.get("worker_payload")
            if payload is None:
                continue
            incomplete = ("from_worker_payload" not in methods
                          or "oracle_cost_hint" not in methods)
            if incomplete and cls.name in subclassed:
                continue  # mixin/abstract half — its subclasses carry the contract
            if "from_worker_payload" not in methods:
                yield ctx.violation(
                    self.id, "missing-from-worker-payload", cls,
                    f"{cls.name} defines worker_payload but no "
                    "from_worker_payload: the process backend cannot rebuild "
                    "it on the far side of the pickle boundary")
            if "oracle_cost_hint" not in methods:
                yield ctx.violation(
                    self.id, "missing-oracle-cost-hint", cls,
                    f"{cls.name} defines worker_payload but no "
                    "oracle_cost_hint: its kernel structure (order, rank, "
                    "update depth) falls back to the generic default")
            rebuild = methods.get("from_worker_payload")
            if rebuild is None or rebuild.name != "from_worker_payload":
                continue
            produced = _produced_keys(payload, methods, {"worker_payload"})
            if produced is None:
                continue  # dynamic construction — opaque to the static check
            for site in _consumed_keys(rebuild):
                key = _key_of(site)
                if key not in produced:
                    yield ctx.violation(
                        self.id, "payload-key-mismatch", site,
                        f"{cls.name}.from_worker_payload consumes payload key "
                        f"{key!r} which {cls.name}.worker_payload never "
                        f"produces (produced: {sorted(produced)})")

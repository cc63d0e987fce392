#!/usr/bin/env python
"""Import-cycle / layering check for the streaming engine refactor.

Rules (see ``docs/architecture.md``):

1. ``repro.core`` must not import ``repro.guard``, ``repro.resilience``,
   or ``repro.telemetry`` **at any level** (module scope or inside a
   function) — those services plug in *through* the engine's interceptor
   stack or the ``repro.utils.hooks`` indirection, never the other way
   around. ``if TYPE_CHECKING:`` blocks are exempt (never executed, so
   they create no runtime coupling).
2. ``repro.core`` must not import ``repro.engine`` **at module level**
   (lazy imports inside ``run``/``resume`` are the sanctioned exception —
   otherwise ``core → engine → core`` would be a load-time cycle).
3. ``repro.engine`` modules must not import ``repro.guard``,
   ``repro.resilience``, or ``repro.telemetry`` at module level (lazy,
   call-time imports are fine: the engine stays importable on a stripped
   deployment where those subsystems are absent).
4. ``repro.fleet`` must not import ``repro.metrics`` **at any level**:
   the process pool lives in ``repro.fleet.pool``, and the fleet never
   depends on the evaluation harness.
5. ``repro.metrics`` must not import ``repro.fleet`` at module level:
   ``ParallelRunner`` loads the pool at call time, only when it runs a
   pooled grid, so ``import repro`` loads no process-pool machinery.

Exits non-zero listing every violation as ``file:line: message``.
Run from the repo root::

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

SERVICES = ("guard", "resilience", "telemetry")


def _imported_packages(node: ast.AST, module_path: Path) -> list[str]:
    """Top-level ``repro.*`` subpackage names imported by this node."""
    out = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                out.append(parts[1])
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    out.append(parts[1])
                else:
                    out.extend(a.name for a in node.names)
        else:
            # Relative import: resolve against the module's package depth.
            rel = module_path.relative_to(SRC)
            package = list(rel.parts[:-1])  # drop the filename
            base = package[: len(package) - (node.level - 1)]
            parts = (node.module or "").split(".") if node.module else []
            full = base + [p for p in parts if p]
            if full:
                out.append(full[0])
            else:
                out.extend(a.name for a in node.names)
    return out


def _is_type_checking_if(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guard?"""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level(tree: ast.Module):
    """Import nodes executed at import time (module scope, incl. try/if)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            if _is_type_checking_if(node):
                continue
            for child in ast.iter_child_nodes(node):
                stack.append(child)


def _type_checking_imports(tree: ast.Module) -> set[int]:
    """ids of import nodes living under an ``if TYPE_CHECKING:`` guard."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if _is_type_checking_if(node):
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    out.add(id(child))
    return out


def check() -> list[str]:
    errors: list[str] = []

    def scan(package: str, *, banned_everywhere=(), banned_module_level=()):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            module_level_nodes = set(id(n) for n in _module_level(tree))
            type_only = _type_checking_imports(tree)
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if id(node) in type_only:
                    continue
                rel = path.relative_to(REPO)
                for pkg in _imported_packages(node, path):
                    if pkg in banned_everywhere:
                        errors.append(
                            f"{rel}:{node.lineno}: repro.{package} must not "
                            f"import repro.{pkg} (any level)"
                        )
                    elif pkg in banned_module_level and id(node) in module_level_nodes:
                        errors.append(
                            f"{rel}:{node.lineno}: repro.{package} must not "
                            f"import repro.{pkg} at module level"
                        )
        return errors

    scan("core", banned_everywhere=SERVICES, banned_module_level=("engine",))
    scan("engine", banned_module_level=SERVICES)
    scan("fleet", banned_everywhere=("metrics",))
    scan("metrics", banned_module_level=("fleet",))
    return errors


def main() -> int:
    errors = check()
    if errors:
        print(f"layering check FAILED ({len(errors)} violation(s)):")
        for err in errors:
            print(f"  {err}")
        return 1
    print(
        "layering check OK: core is service-free, engine imports lazily, "
        "fleet is metrics-free, metrics loads the pool lazily."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

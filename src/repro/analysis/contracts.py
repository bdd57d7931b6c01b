"""Repo-level seeded-stream contract linter (stdlib ``ast``, no deps).

The trajectory engines depend on three invariants that no type checker
sees, so this module enforces them structurally over ``src/``:

``C001``
    ``np.random.default_rng`` may be called only inside
    ``repro.utils.rng`` — everything else accepts a ``SeedLike`` and
    routes through :func:`repro.utils.rng.ensure_rng`, so one integer
    seeds an entire experiment.
``C002``
    The legacy global ``np.random.*`` state (``np.random.seed``,
    ``np.random.rand``, ...) is banned outright: it is unseeded process
    state and silently breaks run-to-run reproducibility.  Referencing
    the *types* (``np.random.Generator`` in annotations, etc.) is fine.
``C003``
    Inside the kernel packages (``repro.mbqc``, ``repro.stab``,
    ``repro.sim``) a generator must not make scalar draws inside a
    ``for``/``while`` loop: per-op draws make the consumed stream depend
    on data order, which breaks the whole-block draw tables that keep
    seeded records bit-identical across chunk sizes.  No scope is
    exempt.

Run via :func:`lint_tree` (pytest + CI) or ``repro lint --contracts``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.analysis.diagnostics import Diagnostic, Severity

#: Module path suffixes where C001/C002 do not apply (the one sanctioned
#: ``default_rng`` call site).
RNG_MODULE_SUFFIXES = ("repro/utils/rng.py",)

#: Path fragments identifying the kernel packages C003 covers.
KERNEL_PACKAGE_FRAGMENTS = ("repro/mbqc/", "repro/stab/", "repro/sim/")

#: ``np.random`` attributes that are legitimate non-drawing references
#: (types for annotations/isinstance, the sanctioned constructor which
#: C001 polices separately).
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

#: Generator methods that produce variates.  A call with no ``size``
#: argument yields a scalar — the shape C003 hunts inside loops.
_DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "choice",
        "uniform",
        "normal",
        "standard_normal",
        "permutation",
        "shuffle",
        "binomial",
        "exponential",
    }
)


def _is_np_random(node: ast.AST) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _looks_like_rng(node: ast.AST) -> bool:
    """Heuristic: does this expression name a generator object?"""
    if isinstance(node, ast.Name):
        return "rng" in node.id.lower() or node.id == "gen"
    if isinstance(node, ast.Attribute):
        return "rng" in node.attr.lower()
    return False


def _is_scalar_draw(call: ast.Call) -> bool:
    """True when ``call`` is a generator draw with no ``size`` — i.e. it
    consumes exactly one variate from the stream."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _DRAW_METHODS:
        return False
    if not _looks_like_rng(func.value):
        return False
    if any(kw.arg == "size" for kw in call.keywords):
        return False
    # rng.random(n) passes size positionally; the parameterized draws
    # (integers/uniform/...) take distribution arguments first, so a
    # positional arg does not imply a vector there.
    if func.attr in ("random", "standard_normal") and call.args:
        return False
    return True


class _ContractVisitor(ast.NodeVisitor):
    def __init__(self, filename: str, in_kernel: bool) -> None:
        self.filename = filename
        self.in_kernel = in_kernel
        self.diagnostics: List[Diagnostic] = []
        self._loop_depth = 0

    def _emit(self, code: str, severity: Severity, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                where=f"{self.filename}:{line}",
            )
        )

    # -- loop tracking ---------------------------------------------------
    def _visit_scoped(self, node: ast.AST) -> None:
        # a new function body is not lexically "inside" the outer loop
        saved, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = saved

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_scoped

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # comprehensions iterate too
    def _visit_comp(self, node: ast.AST) -> None:
        self._visit_loop(node)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _visit_comp

    # -- the checks ------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_np_random(node.value) and node.attr not in _NP_RANDOM_OK:
            self._emit(
                "C002",
                Severity.ERROR,
                f"global numpy.random.{node.attr} used; draw from a seeded "
                f"Generator via repro.utils.rng.ensure_rng instead",
                node,
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_default_rng = (
            isinstance(func, ast.Attribute)
            and func.attr == "default_rng"
            and _is_np_random(func.value)
        ) or (isinstance(func, ast.Name) and func.id == "default_rng")
        if is_default_rng:
            self._emit(
                "C001",
                Severity.ERROR,
                "np.random.default_rng called outside repro.utils.rng; "
                "accept a SeedLike and call ensure_rng",
                node,
            )
        elif (
            self.in_kernel
            and self._loop_depth > 0
            and _is_scalar_draw(node)
        ):
            self._emit(
                "C003",
                Severity.ERROR,
                "scalar RNG draw inside a loop; hoist to one whole-block "
                "draw (size=...) so the consumed stream is data-independent",
                node,
            )
        self.generic_visit(node)


def _normalized(path: Union[str, Path]) -> str:
    return str(path).replace("\\", "/")


def lint_source(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text against the seeded-stream contracts."""
    norm = _normalized(filename)
    if norm.endswith(RNG_MODULE_SUFFIXES):
        return []
    tree = ast.parse(source, filename=filename)
    visitor = _ContractVisitor(
        filename, in_kernel=any(f in norm for f in KERNEL_PACKAGE_FRAGMENTS)
    )
    visitor.visit(tree)
    return visitor.diagnostics


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Diagnostic]:
    """Lint a collection of python files; unreadable/unparsable files
    surface as C002-free syntax errors from :func:`ast.parse` (a broken
    file should fail loudly, not be skipped)."""
    out: List[Diagnostic] = []
    for path in paths:
        p = Path(path)
        out.extend(lint_source(p.read_text(encoding="utf-8"), str(p)))
    return out


def lint_tree(root: Union[str, Path]) -> List[Diagnostic]:
    """Recursively lint every ``*.py`` under ``root`` (sorted for stable
    output order)."""
    root_path = Path(root)
    if root_path.is_file():
        return lint_paths([root_path])
    return lint_paths(sorted(root_path.rglob("*.py")))


def format_contract_report(diags: Sequence[Diagnostic]) -> str:
    """One line per finding, file order preserved."""
    if not diags:
        return "contracts clean"
    return "\n".join(d.format() for d in diags)

"""Architecture guards, as ast scans over the package.

Only ``spaces.py`` may branch on catalog classes: per-space behaviour lives
in methods of the spaces themselves, so no other module of the package
passes a catalog class to ``isinstance``.  A scalar distance is written once,
on ``MetricSpace``, as a one-row batch.  The weighted p-norm is written
once, and a short last axis is reduced only by ``gluing.rowwise``.  Tolerances
live in one record, ``reports.Tolerances``.  Margin verdicts go through
``reports.worst``, where a NaN margin fails.  Construction reads
``ProductSpace.gluing_class``; only the checks sample a classification.
Records carry no wall clock, and the benchmark tracer finds every name it wraps.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metricprod"
CATALOG = {"RealLine", "HalfLine", "LpSpace", "DiscreteSpace", "FiniteMetricSpace"}


def catalog_isinstance_calls(path: Path) -> list[int]:
    """Line numbers of ``isinstance`` calls in ``path`` that name a catalog class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            name = cls.id if isinstance(cls, ast.Name) else getattr(cls, "attr", None)
            if name in CATALOG:
                lines.append(node.lineno)
                break
    return lines


def test_no_catalog_isinstance_outside_spaces():
    hits = [f"{path.name}:{line}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "spaces.py"
            for line in catalog_isinstance_calls(path)]
    assert hits == []


def distance_definitions(path: Path) -> list[str]:
    """Owners (class or module) of the functions named ``distance`` defined in ``path``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "distance":
            found.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, node.name if isinstance(node, ast.ClassDef) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_scalar_distance():
    """Every space reads a scalar distance as the one-row batch ``MetricSpace.distance``
    stacks, so scalar and batch distances agree by construction."""
    owners = [owner for path in sorted(PACKAGE.glob("*.py"))
              for owner in distance_definitions(path)]
    assert owners == ["spaces.py:MetricSpace"]


def pnorm_root_functions(path: Path) -> list[str]:
    """Functions in ``path`` that take a p-norm root, ``... ** (1.0 / p)``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
                and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1):
            found.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_pnorm_kernel():
    """The weighted p-norm is written once and shared by gluings and lp spaces."""
    owners = {owner for path in sorted(PACKAGE.glob("*.py"))
              for owner in pnorm_root_functions(path)}
    assert owners == {"gluing.py:weighted_pnorm"}


REDUCTIONS = {"max", "min", "sum", "all", "any", "reduce"}


def row_reductions(path: Path) -> list[str]:
    """Functions in ``path`` that call ``.max/.min/.sum/.all/.any/.reduce`` with
    ``axis=-1`` or ``axis=1``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in REDUCTIONS
                and any(kw.arg == "axis" and ast.unparse(kw.value) in ("-1", "1")
                        for kw in node.keywords)):
            found.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_rows_are_reduced_by_the_column_fold():
    """numpy reduces a short last axis one row at a time; ``rowwise`` folds the columns
    instead.  The arclength check (``_arclength``) sums 2^depth chords per piece, a long axis."""
    owners = {owner for path in sorted(PACKAGE.glob("*.py")) for owner in row_reductions(path)}
    assert owners == {"gluing.py:rowwise", "curves.py:_arclength"}


def module_names(path: Path) -> list[str]:
    """Names that ``path`` binds at module level by assignment or import."""
    names = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name for alias in stmt.names]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names += [node.id for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    return names


def tolerance_parameters(path: Path) -> list[str]:
    """Functions in ``path`` taking a ``tau`` or ``tau_strict`` parameter."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            found += [f"{node.name}({a.arg})" for a in args if a.arg in ("tau", "tau_strict")]
    return found


def test_no_tolerance_constants():
    """Checks read the run's ``Tolerances`` record, not module constants."""
    names = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in module_names(path) if name.startswith("TAU_")]
    assert names == []


def test_only_two_tau_parameters():
    """Busemann keeps an absolute per-check override (its ``tau`` config key) and
    the embedding oracle its matching tolerance; every other check reads ``cfg.tol``."""
    params = [p for path in sorted(PACKAGE.glob("*.py")) for p in tolerance_parameters(path)]
    assert sorted(params) == ["busemann_convexity_check(tau)", "finite_embedding_oracle(tau)"]


def test_every_check_runner_is_in_the_golden_corpus():
    """Byte-identity of the golden outputs guards every entry of the check table."""
    from metricprod.cli import CHECK_RUNNERS, DEMOS

    golden = PACKAGE.parent.parent / "tests" / "golden"
    used = {demo(8, 0)["check"] for demo in DEMOS.values()}
    for path in golden.glob("*.json"):
        config = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(config, dict):
            used |= {check["check"] for check in config.get("checks", [])}
    assert set(CHECK_RUNNERS) <= used


def test_readme_lists_the_check_table():
    from metricprod.cli import CHECK_RUNNERS

    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Check names map"):].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([a-z0-9-]+)`", paragraph)) == sorted(CHECK_RUNNERS)


def nan_passing_verdicts(path: Path) -> list[int]:
    """Line numbers of ``FAIL if <comparison> else PASS`` in ``path``: a NaN makes
    every comparison false, so that form passes it."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and getattr(node.body, "id", None) == "FAIL"
            and getattr(node.orelse, "id", None) == "PASS"]


def test_no_nan_passing_verdicts():
    hits = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for line in nan_passing_verdicts(path)]
    assert hits == []


def classification_callers(path: Path) -> list[str]:
    """``file:function`` for every call of ``.classification(...)`` in ``path``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "classification"):
            found.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_checks_sample_a_classification():
    """Geodesic, rank and alpha construction go through ``ProductSpace.gluing_class``,
    which samples only when the gluing has no proven class."""
    callers = {caller for path in sorted(PACKAGE.glob("*.py"))
               for caller in classification_callers(path) if not caller.startswith("gluing.py:")}
    assert callers == {"cli.py:_run_classify", "product.py:gluing_class"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_wall_clock_in_the_package():
    """Stdout is byte-identical across runs by construction: no module reads ``time``.
    Timing is measured from outside, by ``perfbench/tracer.py``."""
    hits = [path.name for path in sorted(PACKAGE.glob("*.py")) if "time" in imported_modules(path)]
    assert hits == []


def test_benchmark_tracer_installs():
    """The tracer rebinds package attributes by name; renaming or deleting one of them
    must fail here rather than in a later traced benchmark run."""
    root = PACKAGE.parent.parent
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracer; "
            "tracer.install(tracer.Recorder())")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "perfbench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

import ast
from pathlib import Path

import tailwls
from tailwls import errors


def _exception_classes(namespace: dict) -> dict:
    return {name: value for name, value in namespace.items()
            if isinstance(value, type) and issubclass(value, Exception)}


# The exported names; adding or removing one is a change of this list.
PUBLIC_NAMES = [
    "DEFAULT_RHO_GRID", "DegenerateTailError", "DistributionSpec", "ESTIMATOR_IDS",
    "EmptyOrTinyError", "FAMILIES", "GENERATOR_ID", "InvalidRhoError", "KOutOfRangeError",
    "KTooSmallError", "MOMENT_RHO_RANGE", "NonFiniteError", "NonPositiveError",
    "NormalityReport", "OrderedTail", "RhoMethod", "SMoments", "SimulationConfig",
    "SimulationSummary", "TailwlsError", "UOutOfRangeError", "__version__", "amse", "burr",
    "cdf", "covariates", "frechet", "loggamma", "normality_report", "optimal_k", "pareto",
    "path_estimates", "quantile", "rep_seed", "resolve_rho", "run_model_simulation",
    "run_simulation", "s1_limit", "s2_limit", "s_moments", "sample", "standardized_statistic",
    "summarize", "validate_and_sort", "weights",
]


def test_public_surface():
    """The exported names are PUBLIC_NAMES, each once, and resolve; every error is exported and typed."""
    names = tailwls.__all__
    assert sorted(names) == PUBLIC_NAMES and len(names) == len(set(names))
    for name in names:
        assert hasattr(tailwls, name), name
    exported = _exception_classes({name: getattr(tailwls, name) for name in names})
    assert set(_exception_classes(vars(errors))) <= set(exported)
    for name, cls in exported.items():
        if cls is not tailwls.TailwlsError:
            assert issubclass(cls, tailwls.TailwlsError), name
            assert issubclass(cls, ValueError), name


def _unused_imports(source: str) -> list:
    """Names a module's import statements bind that no other node of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    """A stale import is a deleted helper's leftover; ``__init__`` imports to re-export.

    The package's modules, the tests, the demos and the tools are checked.
    """
    root = Path(__file__).resolve().parents[1]
    modules = [path for folder in (Path(tailwls.__file__).parent, root / "tests",
                                   root / "demos", root / "tools")
               for path in sorted(folder.glob("*.py"))]
    assert len(modules) > 20
    stale = {f"{path.parent.name}/{path.name}": _unused_imports(path.read_text(encoding="utf-8"))
             for path in modules if path.name != "__init__.py"}
    assert {name: names for name, names in stale.items() if names} == {}


_FAILURE_CODES = {"EXIT_PARSE", "EXIT_ESTIMATION", "EXIT_CONFIG"}


def _stderr_failures(source: str) -> list:
    """Where a function of a CLI module other than ``main`` reports a failure itself.

    That is, returns a nonzero exit code, or prints to ``sys.stderr`` a line
    other than a ``warning:``.
    """
    def is_stderr(node):
        return (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id == "sys")

    def text(node):
        parts = node.values if isinstance(node, ast.JoinedStr) else [node]
        return "".join(p.value for p in parts
                       if isinstance(p, ast.Constant) and isinstance(p.value, str))

    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None:
                codes = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
                found += [f"{func.name} returns {c} (line {node.lineno})"
                          for c in sorted(codes & _FAILURE_CODES)]
            elif isinstance(node, ast.Call):
                to_stderr = (is_stderr(getattr(node.func, "value", None))
                             or isinstance(node.func, ast.Name) and node.func.id == "print"
                             and any(k.arg == "file" and is_stderr(k.value)
                                     for k in node.keywords))
                if to_stderr and not (node.args and "warning: " in text(node.args[0])):
                    found.append(f"{func.name} writes a failure to stderr (line {node.lineno})")
    return found


def test_only_cli_main_reports_a_failure():
    """Commands raise; ``cli.main`` alone prints the stderr line and picks the exit code."""
    breach = "def f():\n    print('x', file=sys.stderr)\n    return EXIT_CONFIG\n"
    assert len(_stderr_failures(breach)) == 2  # the check sees both kinds
    path = Path(tailwls.__file__).parent / "cli.py"
    assert _stderr_failures(path.read_text(encoding="utf-8")) == []


_ENGINE_CALLS = {"_replicate", "_model_draw", "_sampling_draw"}


def _engine_calls(source: str) -> list:
    """(enclosing top-level name, callee) for each call of the engine or of a draw builder."""
    calls = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in _ENGINE_CALLS:
                    calls.append((getattr(top, "name", "<module>"), callee))
    return sorted(calls)


def test_only_the_two_study_cores_draw_and_replicate():
    """Each draw mode has one core; every study reaches the engine through it."""
    breach = "def normality_report():\n    return montecarlo._replicate(_model_draw(1))\n"
    assert _engine_calls(breach) == [("normality_report", "_model_draw"),
                                     ("normality_report", "_replicate")]
    calls = []
    for path in sorted(Path(tailwls.__file__).parent.glob("*.py")):
        calls += _engine_calls(path.read_text(encoding="utf-8"))
    assert calls == [("_model_core", "_model_draw"), ("_model_core", "_replicate"),
                     ("_sampling_core", "_replicate"), ("_sampling_core", "_sampling_draw")]


def _stream_reach(source: str) -> tuple[list, list]:
    """(lines that reach ``numpy.random``, private names imported from the package).

    ``numpy.random`` is reached as ``np.random`` or by an import of it or of
    a submodule; a private name has one leading underscore, not two.
    """
    lines, private = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy"):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            if any(m == "numpy.random" or m.startswith("numpy.random.") for m in modules):
                lines.append(node.lineno)
            if getattr(node, "level", 0):
                private += [alias.name for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    return sorted(lines), private


def test_only_montecarlo_owns_the_seeded_stream():
    """``montecarlo`` alone reaches numpy.random, and it imports no other module's private name."""
    breach = ("import numpy.random\nfrom numpy.random.bit_generator import ISeedSequence\n"
              "from .distributions import _uniforms, __version__\nu = np.random.PCG64(1)\n")
    assert _stream_reach(breach) == ([1, 2, 4], ["_uniforms"])
    reach = {path.stem: _stream_reach(path.read_text(encoding="utf-8"))
             for path in sorted(Path(tailwls.__file__).parent.glob("*.py"))}
    assert [module for module, (lines, _) in reach.items() if lines] == ["montecarlo"]
    assert reach["montecarlo"][1] == []


def _exports(source: str) -> tuple[list, list]:
    """(the names of a module's ``__all__``, those of them it does not define at top level).

    A top-level definition is a ``def``, a ``class`` or an assignment; an
    imported name is not one.
    """
    exported, defined = [], set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = list(ast.literal_eval(node.value))
    return exported, [name for name in exported if name not in defined]


def test_each_public_name_is_declared_once_beside_its_definition():
    """Each module lists the public names it defines; ``__init__`` re-exports the lists."""
    breach = "from .errors import TailwlsError\n__all__ = ['TailwlsError', 'f', 'g']\ndef f(): pass\n"
    assert _exports(breach) == (["TailwlsError", "f", "g"], ["TailwlsError", "g"])
    package = Path(tailwls.__file__).parent
    exports = {path.stem: _exports(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {module: missing for module, (_, missing) in exports.items() if missing} == {}
    declared = [name for names, _ in exports.values() for name in names]
    assert sorted(name for name in set(declared) if declared.count(name) > 1) == []
    star = [node.module for node in ast.parse((package / "__init__.py").read_text("utf-8")).body
            if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]]
    assert sorted(star) == sorted(module for module, (names, _) in exports.items() if names)
    assert tailwls.__all__ == ["__version__", *(n for m in star for n in exports[m][0])]

import ast
import pathlib

import subdesign


def test_export_list_resolves():
    names = subdesign.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(subdesign, name), name
    namespace = {}
    exec("from subdesign import *", namespace)
    assert set(names) <= set(namespace)


def _unused_imports(path):
    """Names an import binds and the module never reads, `# noqa: F401` aside."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    package = pathlib.Path(subdesign.__file__).parent
    unused = [hit for path in sorted(package.glob("*.py")) for hit in _unused_imports(path)]
    assert unused == []


def test_no_line_over_100_characters():
    """Lines stay short, so a change in line count is not one of density."""
    package = pathlib.Path(subdesign.__file__).parent
    long = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


def test_readme_quickstart_runs(capsys):
    """The README's Python block runs as written against the installed API."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, str(readme), "exec"), namespace)
    refit, problem = namespace["refit"], namespace["problem"]
    assert refit.theta0.shape == (problem.n_params,)
    assert capsys.readouterr().out

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import geomis

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_what_its_comments_say():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["(0, 2)", "2 1.0", "0.08704884049847031", "(1, 2)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


NUMPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"
POOL_MODULES = (
    "sorted(m for m in sys.modules"
    " if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process')"
)


def test_importing_the_cli_does_not_load_numpy(tmp_path):
    src = str(Path(geomis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, geomis.cli; print({NUMPY_MODULES}); print({POOL_MODULES})"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # The process pool is imported only by a pooled experiment.
    assert done.stdout.splitlines() == ["[]", "[]"]
    # Generating random instances, building their graphs, filtering unit
    # balls through the lattice and the scalar lattice self-checks stay
    # numpy-free too.
    code = f"""
import sys
from geomis.cli import cli_dispatch
for kind in ("random_rects", "random_balls"):
    path = {str(tmp_path)!r} + "/" + kind + ".gis"
    assert cli_dispatch(["gen", "--kind", kind, "--n", "200", "--dim", "3",
                         "--box-side", "20", "--seed", "5", "--out", path]) == 0
    assert cli_dispatch(["run", "--alg", "firstfit", "--in", path]) == 0
assert cli_dispatch(["run", "--alg", "filter", "--in", path]) == 0
assert cli_dispatch(["lattice", "--check", "mindist"]) == 0
assert cli_dispatch(["lattice", "--check", "closest", "--samples", "200"]) == 0
print({NUMPY_MODULES})
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.count("valid_independent true") == 3
    assert "algorithm filter" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_input_contract_lives_in_geometry():
    # The strategies and generators refuse through geometry alone, and
    # one helper writes every lower-bound message.
    package = Path(geomis.__file__).resolve().parent
    importers, lines, trees = set(), [], {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = trees[path.stem] = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "oracle":
                importers.add(path.stem)
        lines += [
            (path.stem, number)
            for number, line in enumerate(text.splitlines(), 1)
            if "must be >=" in line
        ]
    assert importers == {"harness", "cli", "__init__"}
    helper = next(
        node for node in trees["geometry"].body
        if isinstance(node, ast.FunctionDef) and node.name == "require_at_least"
    )
    [(module, number)] = lines
    assert module == "geometry" and helper.lineno <= number <= helper.end_lineno


def test_modules_keep_their_boundaries():
    # No module reaches into another's private names, and instance files
    # load without the generators or the exact oracle.
    package = Path(geomis.__file__).resolve().parent
    private, instances_imports = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
                if path.stem == "instances":
                    instances_imports.add(node.module)
    assert private == []
    assert instances_imports.isdisjoint({"adversaries", "oracle"})

"""No budnav module imports a name it does not use.

No linter is installed, so this test looks for unused imports with ast.
perfbench's tracer wraps functions by module attribute (setting, say,
rollout.observe), so a module may import a name only for the tracer to
patch.  Such an import is allowed while the tracer patches it, and only
then: once the tracer stops patching a name, the import has to go.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> set:
    """Names the source binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def tracer_patches() -> set:
    """(module, attribute) for every budnav module attribute that
    perfbench's tracer.install patches, recorded by a stand-in for its
    _patch that patches nothing."""
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer\n"
        "seen = []\n"
        "tracer._patch = lambda owner, attr, wrap: seen.append((owner.__name__, attr))\n"
        "tracer.install(tracer.Tracer())\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        (owner.removeprefix("budnav."), attr)
        for owner, attr in json.loads(proc.stdout)
        if owner.startswith("budnav.")
    }


def test_unused_imports_finds_names_bound_and_never_read():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unused_imports(source) == {"os", "a"}


def test_every_unused_import_is_one_the_tracer_patches():
    patched = tracer_patches()
    assert ("rollout", "snapshot_logits_fn") in patched
    unused = {
        (path.stem, name)
        for path in sorted((ROOT / "src" / "budnav").glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert unused - patched == set()

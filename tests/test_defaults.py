"""Every defaulted parameter of a budnav function is set by some caller.

A default that no program sets is a constant wearing a parameter's
clothes: each such value is one more thing a reader must check.  This
test collects, with ast, every parameter with a default in src/budnav
and every call in src/, demos/, perfbench/ and tools/ (not tests/).  A
call sets a parameter by keyword, by position, or through * or **
unpacking; calls are matched to functions by name alone.  The few
parameters that only tests or the outside world set are allowlisted,
each with its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "cli.main.argv": "the console script passes none; tests pass their argv",
    "world.observe.k": "the one-observation API; rollouts gather patches through observe_states",
    "metrics.ndtw.threshold": "the nDTW formula's published form; evaluation uses the goal radius",
    "metrics.ndtw.cell_size": "the nDTW formula's published form; evaluation uses episode cell sizes",
    "rollout.serialize_trace.demo": "the trace format's rectification block, which replay reads",
}


def defaulted_parameters(source: str, module: str) -> dict:
    """{"module.function.param": (function, positional index or None)}
    for every parameter with a default; a method's self or cls is not
    counted, as its callers do not pass it."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = bool(positional) and positional[0].arg in ("self", "cls")
            for index in range(len(positional) - len(args.defaults), len(positional)):
                found[f"{module}.{node.name}.{positional[index].arg}"] = (node.name, index - bound)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[f"{module}.{node.name}.{arg.arg}"] = (node.name, None)
    return found


def calls(source: str):
    """(callee name, positional count or None if starred, keyword names or
    None if ** unpacked) for every call in the source, except calls of a
    name some function there takes as a parameter (a callable passed in)."""
    tree = ast.parse(source)
    passed_in = {
        arg.arg
        for node in ast.walk(tree) if isinstance(node, ast.arguments)
        for arg in node.posonlyargs + node.args + node.kwonlyargs
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(func, ast.Name) and name in passed_in:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            yield (
                name,
                None if starred else len(node.args),
                None if None in keywords else keywords,
            )


def unset_defaults() -> set:
    params = {}
    for path in sorted((ROOT / "src" / "budnav").glob("*.py")):
        params.update(defaulted_parameters(path.read_text(), path.stem))
    seen = [
        call
        for top in ("src", "demos", "perfbench", "tools")
        for path in sorted((ROOT / top).rglob("*.py"))
        for call in calls(path.read_text())
    ]
    unset = set()
    for key, (function, index) in params.items():
        param = key.rsplit(".", 1)[1]
        if not any(
            name == function and (
                keywords is None or param in keywords
                or (index is not None and (count is None or index < count))
            )
            for name, count, keywords in seen
        ):
            unset.add(key)
    return unset


def test_the_scan_sees_keyword_position_and_unpacking():
    source = "def f(a, b=1, *, c=2):\n    pass\n\ndef g(d=3):\n    pass\n"
    assert set(defaulted_parameters(source, "m")) == {"m.f.b", "m.f.c", "m.g.d"}
    assert list(calls("f(1, 2)\nx.f(c=3)\ng(*x)\nf(**y)\n")) == [
        ("f", 2, set()), ("f", 0, {"c"}), ("g", None, set()), ("f", 0, None),
    ]
    assert list(calls("def h(f):\n    f(1, 2)\n    x.f(3)\n")) == [("f", 1, set())]
    assert defaulted_parameters("class C:\n    def h(self, e=4):\n        pass\n", "m") == {
        "m.h.e": ("h", 0),
    }


def test_every_default_is_set_by_a_program_caller():
    unset = unset_defaults()
    assert unset - set(ALLOWED) == set()
    assert set(ALLOWED) - unset == set(), "an allowlisted parameter now has a caller"

"""Every top-level ``def``/``class`` in the package has a consumer.

A pure AST walk, no Ray. The roots are the programs that use the package
— ``__ray_entry__.py``, ``bench.py``, ``perfbench/`` and ``scripts/`` —
plus the package's own module-level statements other than imports (so a
re-export alone does not count). Reachability spreads through the names
used in the bodies of reached definitions. A use is a name, an attribute
or an imported name; comments, docstrings and other string literals are
not (a column called ``"jaccard"`` is not a call of ``jaccard``), so a
definition looked up by string goes on the allowlist with its reason.
Tests are not roots: a definition only tests reach has no consumer.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "logstash_filter_translate_ray"
ROOTS = [REPO / "__ray_entry__.py", REPO / "bench.py",
         *sorted((REPO / "perfbench").rglob("*.py")),
         *sorted((REPO / "scripts").rglob("*.py"))]

ALLOWED = {
    "read_transcripts_csv": "the CSV half of the transcript sources; "
                            "keeping it is a coverage decision",
    "read_transcripts_json": "the JSON half of the transcript sources; "
                             "keeping it is a coverage decision",
    "_conform": "the schema conform step of the CSV/JSON sources",
    "make_skip_counter": "goes with the run report (ROADMAP item 2)",
}


def _uses(node: ast.AST) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _unreached() -> set:
    defs: dict = {}
    roots = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _uses(node)
    for path in ROOTS:
        roots |= _uses(ast.parse(path.read_text()))
    reached = set()
    todo = list(roots & defs.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs[name]:
                todo.extend(_uses(node) & defs.keys() - reached)
    return set(defs) - reached


def test_every_definition_has_a_consumer():
    unreached = _unreached()
    assert sorted(unreached - ALLOWED.keys()) == [], \
        "definitions no root reaches: delete them or give them a consumer"
    # an allowlist entry that is gone or now reached is stale
    assert sorted(ALLOWED.keys() - unreached) == []

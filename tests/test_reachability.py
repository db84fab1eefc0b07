"""Every public top-level function and class in src/sipsim/ is reached: code
in src/ outside its own definition and outside __init__.py refers to it by
an ast Name or Attribute node, or README.md's "API outside the studies"
section names it. Comments, docstrings and imports do not count."""

import ast
import os
import re

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "sipsim")
README = os.path.join(HERE, os.pardir, "README.md")
SECTION = "## API outside the studies"


def test_every_public_definition_is_reached():
    references = []  # (module, line number, name) of every Name and Attribute
    definitions = []  # (module, name, first line, last line)
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        definitions += [(module, node.name, node.lineno, node.end_lineno)
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.lineno, node.attr))
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    assert SECTION in readme
    section = readme.split(SECTION, 1)[1].split("\n## ", 1)[0]
    unreached = []
    for module, name, first, last in definitions:
        used = any(ref == name and not (m == module and first <= i <= last)
                   for m, i, ref in references)
        if not (used or re.search(rf"\b{re.escape(name)}\b", section)):
            unreached.append(f"{module}:{first} {name}")
    assert unreached == []

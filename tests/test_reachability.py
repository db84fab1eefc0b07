"""Every public top-level function and class in src/sipsim/ is reached:
named on a line of src/ outside its own definition, or in README.md."""

import ast
import os
import re

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "sipsim")
README = os.path.join(HERE, os.pardir, "README.md")


def test_every_public_definition_is_reached():
    lines = []  # (module, line number, text) over all of src/
    definitions = []  # (module, name, first line, last line)
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            text = fh.read()
        lines += [(module, i, line) for i, line in enumerate(text.splitlines(), start=1)]
        definitions += [(module, node.name, node.lineno, node.end_lineno)
                        for node in ast.parse(text).body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    unreached = []
    for module, name, first, last in definitions:
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(word.search(line) for m, i, line in lines
                   if not (m == module and first <= i <= last))
        if not (used or word.search(readme)):
            unreached.append(f"{module}:{first} {name}")
    assert unreached == []

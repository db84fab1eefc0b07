"""Every top-level function and class in src/sipsim/, and every private
module-level name, is reached: code in src/ outside its own definition and
outside __init__.py refers to it by an ast Name or Attribute node. The public
ones that are not are exactly those README.md's "API outside the studies"
lists, so a stale entry fails too; a private one (leading underscore) has
no such way out, so a merged helper cannot linger. Comments, docstrings
and imports do not count. Every module-level import in src/sipsim/ is used
by its own module, or listed in its `__all__`, so a deletion leaves no
stale import behind. The waiting-time log and the walk weight are each
stated once, in `core`; the coordinate limit is compared only in
`Geometry` and `_free_flight`, and the config states no domain of d, m or
theta of its own. Every field a study's config may set is read by its
runner, so no config key is a silent no-op."""

import ast
import os
import re

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "sipsim")
README = os.path.join(HERE, os.pardir, "README.md")
SECTION = "## API outside the studies"


def _definitions_and_references():
    references = []  # (module, line number, name) of every Name and Attribute
    definitions = []  # (module, name, first line, last line of its statement)
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                # private module-level names only; dunders are protocol
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)
                         and t.id.startswith("_") and not t.id.startswith("__")]
            else:
                continue
            definitions += [(module, name, node.lineno, node.end_lineno) for name in names]
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.lineno, node.attr))
    return definitions, references


def _unreached(private):
    """`module.name` of each unreached definition, public or private."""
    definitions, references = _definitions_and_references()
    unreached = []
    for module, name, first, last in definitions:
        if name.startswith("_") != private:
            continue
        if not any(ref == name and not (m == module and first <= i <= last)
                   for m, i, ref in references):
            unreached.append(f"{module[:-3]}.{name}")
    return unreached


def test_every_public_definition_is_reached():
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    assert SECTION in readme
    section = readme.split(SECTION, 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\* `(\w+\.\w+)`", section, re.MULTILINE)
    assert sorted(_unreached(private=False)) == sorted(listed)


def test_every_private_definition_is_reached():
    assert _unreached(private=True) == []


def _unused_imports():
    """`module.name` of each name a module-level import binds that its own
    module never refers to; `from __future__` imports are directives."""
    unused = []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module[:-3]}.{name}")
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports() == []


def _rule_owners():
    """(module, top-level definition) of each statement in src/sipsim/ of
    the waiting-time log `map(math.log, ...)` and of the walk weight
    `1.0 / (2.0 * <...>.d)`, in that order of rules."""
    logs, weights = [], []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            owner = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "map" and node.args
                        and ast.unparse(node.args[0]) == "math.log"):
                    logs.append(owner)
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                        and ast.unparse(node.left) == "1.0"
                        and isinstance(node.right, ast.BinOp)
                        and isinstance(node.right.op, ast.Mult)
                        and ast.unparse(node.right.left) == "2.0"
                        and isinstance(node.right.right, ast.Attribute)
                        and node.right.right.attr == "d"):
                    weights.append(owner)
    return logs, weights


def test_waiting_time_and_walk_weight_are_stated_once():
    # a second statement of either rule would let two copies drift apart
    logs, weights = _rule_owners()
    assert logs == [("core.py", "waiting_times")]
    assert weights == [("core.py", "Geometry")]


def _coord_limit_comparisons():
    """(module, top-level definition, operator) of each comparison in
    src/sipsim/ with `COORD_LIMIT` on its right."""
    found = []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    found += [(module, getattr(top, "name", None), type(op).__name__)
                              for op, right in zip(node.ops, node.comparators)
                              if isinstance(right, ast.Name) and right.id == "COORD_LIMIT"]
    return found


def test_coordinate_limit_is_one_rule_in_two_places():
    # no particle may stand at |c| >= COORD_LIMIT: the step, the neighbour
    # list and the flight say so, and nothing else restates it
    found = _coord_limit_comparisons()
    assert {(module, owner) for module, owner, _ in found} == {
        ("core.py", "Geometry"), ("coupling.py", "_free_flight")}
    assert {op for *_, op in found} <= {"GtE", "Lt"}


def test_config_leaves_the_model_domains_to_the_models():
    # ExperimentConfig checks d, m and theta by building the model objects
    # that state their domains, not by a FieldError of its own
    with open(os.path.join(SRC, "experiments.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    stated = [node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "FieldError" and node.args
              and isinstance(node.args[0], ast.Constant)]
    assert stated and not {"m", "theta", "d"} & set(stated)


def _cfg_reads():
    """runner name -> the `cfg.<field>` attributes its definition reads;
    `run_convergence` also reads what the `_CONVERGENCE_LAWS` builders read."""
    with open(os.path.join(SRC, "experiments.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reads = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            name = top.name
        elif isinstance(top, ast.Assign) and ast.unparse(top.targets[0]) == "_CONVERGENCE_LAWS":
            name = "run_convergence"
        else:
            continue
        reads.setdefault(name, set()).update(
            node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg")
    return reads


def test_every_study_field_is_read_by_its_runner():
    # a key a config may set but the runner never reads would be a silent no-op
    from sipsim.experiments import RUNNERS, STUDIES
    reads = _cfg_reads()
    unread = {study: sorted(set(spec.required + spec.optional)
                            - reads[RUNNERS[study].__name__])
              for study, spec in STUDIES.items()}
    assert unread == {study: [] for study in STUDIES}

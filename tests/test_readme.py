"""README.md against the code.

The exit-5 table has one row per ``TheoremViolation`` site that the walker
of ``test_source_rules`` finds, with its message, its payload keys and the
commands that run its function.  The module table has one row per module of
``src/bbibranch``; every name in it and in the paper map resolves, and the
quick start prints what it says.
"""

import ast
import contextlib
import importlib
import io
import json
import re
import sys
from pathlib import Path

from bbibranch import cli

from test_source_rules import QUERIES, SRC, _nodes

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
TICKED = re.compile(r"`([^`]+)`")

# Two 2-cycles, one inside each side, and four cross arcs: it packs k = 2,
# so ``pack`` peels one class by an LP, and every check samples pairs.
INSTANCE = {
    "vertices": [{"id": v, "side": v[0].upper(), "b": 1}
                 for v in ("s1", "s2", "t1", "t2")],
    "arcs": [{"tail": t, "head": h, "weight": w}
             for t, h, w in (("s1", "s2", 1), ("s2", "s1", 2), ("t1", "t2", 0),
                             ("t2", "t1", 3), ("s1", "t1", 5), ("s2", "t2", 4),
                             ("s1", "t2", 1), ("s2", "t1", 2))],
}


def _section(heading):
    """The README text under ``## heading``, up to the next such heading."""
    return README.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]


def _table(heading):
    """The body rows of the table under heading, each a list of its cells."""
    rows = [line.strip().strip("|").split("|")
            for line in _section(heading).splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def _messages(node):
    """The messages a TheoremViolation call passes: a constant, the format
    of a ``%`` expression, or the messages of both arms of a conditional."""
    if isinstance(node, ast.IfExp):
        return _messages(node.body) + _messages(node.orelse)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        node = node.left
    assert isinstance(node, ast.Constant) and isinstance(node.value, str), \
        ast.dump(node)
    return [node.value]


def _source_sites():
    """(module.function, messages, payload keys) of each TheoremViolation
    site, in walk order; every payload is a dict literal."""
    sites = []
    for row in _nodes():
        if QUERIES["TheoremViolation"](*row):
            file, owner, node, _ = row
            (payload,) = [kw.value for kw in node.keywords if kw.arg == "payload"]
            assert isinstance(payload, ast.Dict), ast.dump(payload)
            sites.append(("%s.%s" % (file.removesuffix(".py"), owner),
                          _messages(node.args[0]),
                          [key.value for key in payload.keys]))
    return sites


def _commands(instance, solution):
    """(label, argv) for every command that reads an instance, once per
    choice of --method and --what.  A check is labelled by its --what and
    ``solve`` by its method, except that ``auto`` and ``lp``, one route,
    are both ``solve``."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, parser in sub.choices.items():
        if name == "gen":
            continue
        argv = [name, instance] + ([solution] if name == "validate" else [])
        choices = {a.option_strings[0]: a.choices for a in parser._actions if a.choices}
        if not choices:
            yield name, argv
        for flag, values in choices.items():
            for value in values:
                label = "solve" if value in ("auto", "lp") else value
                yield label, argv + [flag, value] + (
                    ["--trials", "2"] if name == "check" else [])


def _functions_run(argv, capsys):
    """(file, name) of every package function that ``cli.main(argv)`` enters."""
    entered = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("bbibranch."):
            entered.add((module.split(".")[1] + ".py", frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK, (argv, captured.err)
    return entered


def _resolves(name, labels):
    """Whether name is a command label, ``file::test`` under tests/ or a
    name in the package, such as ``lpsolve.decompose``."""
    if name in labels:
        return True
    if "::" in name:
        file, _, test = name.partition("::")
        tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
        return any(owner == test.replace("::", ".") and isinstance(node, ast.FunctionDef)
                   for _, owner, node, _ in _nodes({file: tree}))
    module, *attrs = name.split(".")
    if not (SRC / (module + ".py")).exists():
        return False
    obj = importlib.import_module("bbibranch." + module)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_exit_five_rows_match_the_sites():
    # One row per site, in walk order: files sorted, then source order.
    rows = [(TICKED.findall(site), TICKED.findall(message), TICKED.findall(payload))
            for site, message, payload, _ in _table("Exit codes")]
    assert rows == [([site], messages, keys)
                    for site, messages, keys in _source_sites()]


def test_exit_five_rows_name_the_commands_that_run_each_site(tmp_path, capsys):
    instance, solution = tmp_path / "i.json", tmp_path / "s.json"
    instance.write_text(json.dumps(INSTANCE))
    solution.write_text('{"arcs": [0]}')
    run = {}
    for label, argv in _commands(str(instance), str(solution)):
        for function in _functions_run(argv, capsys):
            run.setdefault(function, set()).add(label)
    rows = _table("Exit codes")
    assert len(rows) == len(_source_sites())
    for (site, _, _), row in zip(_source_sites(), rows):
        module, _, owner = site.partition(".")
        listed = TICKED.findall(row[3])
        assert listed or row[3] == "none", row
        assert set(listed) == run.get((module + ".py", owner.split(".")[-1]), set()), row


def test_module_rows_name_each_module_in_forty_words():
    rows = _table("Modules")
    modules = [TICKED.fullmatch(module)[1] for module, _ in rows]
    assert sorted(modules) == sorted(
        path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    for module, contract in rows:
        assert len((module + " " + contract).split()) <= 40, module
        unresolved = [name for name in TICKED.findall(contract)
                      if not _resolves("%s.%s" % (module.strip("`"), name), ())]
        assert unresolved == [], module


def test_paper_map_names_resolve():
    labels = {label for label, _ in _commands("i.json", "s.json")}
    rows = _table("Paper map")
    assert len(rows) == 5
    names = TICKED.findall(_section("Paper map"))
    assert names and [name for name in names if not _resolves(name, labels)] == []


def test_quick_start_prints_what_it_says():
    code = _section("Quick start").split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == code.rsplit("# ", 1)[1].strip() + "\n" == "5 [0]\n"

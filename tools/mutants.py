"""Mutation sweep: python tools/mutants.py [FILE ...] (default: manifold.py, model.py).

One mutant per site: swap + and -, * and / (binary and augmented); flip < and
<=, > and >= in one comparison; double each int or float constant but 0 and 1
(not in f-strings). Each runs in a temporary copy of the repository, the math
test files with -x, then the whole suite; survivors pass both. Stdlib only, one
test process at a time (two files: about 15 minutes on 2 vCPUs); not a test.
"""

import ast
import os
import re
import shutil
import sys
import tempfile
from itertools import accumulate
from subprocess import TimeoutExpired, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ["src/grasslvq/manifold.py", "src/grasslvq/model.py"]
MATH = ["tests/test_manifold.py", "tests/test_model.py", "tests/test_gradients.py"]
SWAP = {ast.Add: b"-", ast.Sub: b"+", ast.Mult: b"/", ast.Div: b"*",
        ast.Lt: b"<=", ast.LtE: b"<", ast.Gt: b">=", ast.GtE: b">"}
OPERATOR = re.compile(rb"#[^\n]*|(<=|>=|[-+*/<>])")  # comments match, unflagged


def walk(node):  # node and every node under it, f-strings and their insides left out
    if not isinstance(node, ast.JoinedStr):
        yield node
        yield from (n for child in ast.iter_child_nodes(node) for n in walk(child))


def mutants(source):
    """(line, start, end, replacement) of every mutant of the bytes ``source``."""
    starts = [0, *accumulate(map(len, source.splitlines(keepends=True)))]
    at = lambda line, col: starts[line - 1] + col  # ast columns count UTF-8 bytes
    for node in walk(ast.parse(source)):
        ops = getattr(node, "ops", [getattr(node, "op", None)])
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if node.value not in (0, 1):
                yield (node.lineno, at(node.lineno, node.col_offset),
                       at(node.end_lineno, node.end_col_offset), repr(node.value * 2).encode())
        elif len(ops) == 1 and type(ops[0]) in SWAP:
            left = getattr(node, "left", getattr(node, "target", None))
            right = getattr(node, "right", getattr(node, "value", None)) or node.comparators[0]
            found = OPERATOR.finditer(source, at(left.end_lineno, left.end_col_offset),
                                      at(right.lineno, right.col_offset))
            m = next(m for m in found if m.group(1))  # the first operator between the operands
            yield node.lineno, m.start(1), m.end(1), SWAP[type(ops[0])]


def passes(copy, *tests):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:  # a mutant that hangs is killed
        return not run(argv, cwd=copy, env=env, capture_output=True, timeout=900).returncode
    except TimeoutExpired:
        return False


def main(files):
    copy = tempfile.mkdtemp(prefix="mutants-")
    shutil.copytree(ROOT, copy, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns(".*", "__pycache__"))
    for name in files:
        path, survivors = os.path.join(copy, name), 0
        source = open(path, "rb").read()
        for total, (line, start, end, new) in enumerate(mutants(source), 1):
            open(path, "wb").write(source[:start] + new + source[end:])
            if passes(copy, *MATH) and passes(copy):
                survivors += 1
                print(f"{name}:{line}: {source[start:end].decode()} -> {new.decode()}", flush=True)
        open(path, "wb").write(source)
        print(f"{name}: {survivors} of {total} mutants survive", flush=True)
    shutil.rmtree(copy)


if __name__ == "__main__":
    main(sys.argv[1:] or FILES)

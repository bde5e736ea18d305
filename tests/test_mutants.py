import ast
import os

from mutants import MUTANTS, ROOT


def test_mutant_ledger_is_well_formed():
    # runs no mutant: each targets one exact place, and each listed test exists
    assert len(MUTANTS) >= 8
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    defined = {}
    for m in MUTANTS:
        assert m.file.startswith("src/polyiter/") and m.new != m.old, m.name
        with open(os.path.join(ROOT, m.file)) as handle:
            assert handle.read().count(m.old) == 1, m.name
        assert m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            if path not in defined:
                with open(os.path.join(ROOT, path)) as handle:
                    tree = ast.parse(handle.read())
                defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defined[path], (m.name, test)

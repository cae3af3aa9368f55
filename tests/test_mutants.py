"""Every mutant in ``mutants.py`` still applies to the code it mutates.

Running the mutants takes minutes (``python tests/mutants.py``); this only
checks the table: each ``old`` text occurs exactly once in its file, and
each killing test is defined where its id says.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_old_text_occurs_exactly_once(name):
    mutant = MUTANTS[name]
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_killing_tests_exist(name):
    for test_id in MUTANTS[name].killers:
        path, *scopes = test_id.split("::")
        body = ast.parse((ROOT / path).read_text()).body
        for scope in scopes:
            found = [
                node for node in body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == scope
            ]
            assert found, f"{test_id}: no {scope} in {path}"
            body = found[0].body

"""The Budgets table in README.md against the constants and the refusals."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from modrec.errors import ValidationError, check_budget

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| `(\w+)(?:\[\"(\w+)\"\])?` \| `(\w+)` \| [^|]+ \| ([\d,]+) \| [^|]+ \|$")


def budget_rows():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    return [ROW.match(line).groups() for line in section.splitlines()
            if line.startswith("| `")]


ROWS = budget_rows()


@pytest.mark.parametrize("name, key, module, limit", ROWS,
                         ids=[name + ("[%s]" % key if key else "") for name, key, _, _ in ROWS])
def test_table_row_is_the_constant(name, key, module, limit):
    value = getattr(importlib.import_module("modrec." + module), name)
    if key is not None:
        value = value[key]
    assert value == int(limit.replace(",", "")), (name, key)


def budget_limits():
    """(module, constant) for the names in the limit argument of every
    check_budget call in src/."""
    found = set()
    for path in sorted((ROOT / "src" / "modrec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "check_budget"):
                found.update((path.stem, n.id) for n in ast.walk(node.args[3])
                             if isinstance(n, ast.Name) and n.id.isupper())
    return found


def test_every_refusal_names_a_table_constant():
    table = {(module, name) for name, _, module, _ in ROWS}
    assert budget_limits() == table


def test_one_message_form():
    check_budget("rank 3", "compositions 2^(n-1)", 4, 4)  # a charge at its limit is admitted
    with pytest.raises(ValidationError) as info:
        check_budget("rank 4", "compositions 2^(n-1)", 8, 4)
    assert str(info.value) == "rank 4: compositions 2^(n-1) = 8 exceeds the limit 4"
    # too long for a decimal string: still a ValidationError, in one line
    with pytest.raises(ValidationError, match=r"^e: u = at least 2\^20000 exceeds the limit 1$"):
        check_budget("e", "u", 2 ** 20000 + 1, 1)


def test_weighting_is_the_rounded_up_rule():
    # yangmills and matrixdiv each wrote this rule out with 512-bit units;
    # the shared helper must charge the same to the unit, and round up
    from fractions import Fraction
    from math import ceil

    from modrec.errors import weighted

    counts = list(range(60)) + [k * 10 ** e + j for e in range(2, 13) for k in (1, 3, 7)
                                for j in (-1, 0, 1)]
    for count in counts:
        for bits in list(range(0, 1200, 7)) + [511, 512, 513, 1024, 2 * 140 * 3, 10 ** 9]:
            old = -(-count * (512 + bits) // 512)
            assert weighted(count, bits) == old == ceil(count * (1 + Fraction(bits, 512))), \
                (count, bits)


@pytest.mark.parametrize("module, call, charge", [
    ("yangmills", ("moduli_poincare", 3, 1, 140), 101_392_755),
    ("matrixdiv", ("div_poincare", 3, 73, 2), 9_283_255),
], ids=["series", "matrix-divisors"])
def test_weighted_charges_are_unchanged(module, call, charge):
    name, *args = call
    with pytest.raises(ValidationError, match=r" = %d exceeds" % charge):
        getattr(importlib.import_module("modrec." + module), name)(*args)

"""Checks on the shape of the source tree itself."""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polytoeplitz"
# a COO construction or conversion: the way into scipy's own entry format
COO_CALL = re.compile(r"\bcoo_matrix\(|\.tocoo\(")


def test_the_package_sources_are_found():
    assert (PACKAGE / "linalg.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_linalg_reads_entries_through_coo(path):
    # every other module reads and writes entries by linalg.stored_entries and
    # linalg.entries_matrix, so the entry format stays one decision
    if path.name == "linalg.py":
        return
    calls = [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if COO_CALL.search(line)
    ]
    assert not calls, "\n".join(calls)

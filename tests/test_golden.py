"""Identity with the golden table: each CLI case of golden.py gives what the table records.

The runs share this process's BLAS threads; golden.py pins one when it
writes the table.  Built with 1 and with 2 OpenBLAS threads, the table was
the same (numpy 2.4, 2 vCPU).
"""

import pytest

from golden import CASES, TABLE, numpy_minor, run_case
from oracles import strict_json_loads

RECORDED = strict_json_loads(TABLE.read_text(encoding="utf-8"))


def test_table_holds_every_case_in_order():
    assert list(RECORDED["entries"]) == [name for name, _, _ in CASES]


@pytest.mark.parametrize("name, argv, numpy_bits", CASES, ids=[name for name, _, _ in CASES])
def test_case_matches_the_table(tmp_path, monkeypatch, name, argv, numpy_bits):
    if numpy_bits and numpy_minor() != RECORDED["numpy"]:
        pytest.skip(f"its bits are recorded under numpy {RECORDED['numpy']}")
    monkeypatch.chdir(tmp_path)
    assert run_case(argv, numpy_bits) == RECORDED["entries"][name]

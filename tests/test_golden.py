"""The golden CLI cases of tests/golden/cases.json, run in process."""

import pytest

from endlab import cli
from golden import check as golden


@pytest.mark.parametrize("case", golden.CASES, ids=[case["name"] for case in golden.CASES])
def test_golden_case(case, tmp_path, monkeypatch, capsys):
    golden.stage(case, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert golden.problems(case, code, out.encode(), err.encode(), tmp_path) == []


def test_golden_table_reads_every_spec_file_and_checks_what_it_names():
    names = [case["name"] for case in golden.CASES]
    assert len(set(names)) == len(names)
    # every spec file is read by some row, and every file a row reads is there
    assert {name for case in golden.CASES for name in golden.inputs(case)} == {
        path.name for path in golden.SPECS.iterdir()
    }
    for case in golden.CASES:
        # a misspelt check would otherwise check nothing
        assert set(case) - {"name", "why", "argv"} <= golden.CHECKS, case["name"]
        assert ("exit" in case) != ("bench" in case), case["name"]
        assert set(case) & (golden.CHECKS - {"exit"}), case["name"]

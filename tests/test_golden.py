"""Golden outputs: regenerate each one and require it byte for byte.

Each directory under tests/golden, apart from `analyze`, holds a code file
`input.code`, the stdout of `realize --out` on it as `stdout.txt`, and every
bundle file the command wrote.  The options per case are below.  Each
directory under tests/golden/analyze holds `input.code`, the stdout of
`analyze` on it as `stdout.txt`, that of `analyze --json` as `stdout.json`,
and the exit code of both as `exit.txt`.
"""

from pathlib import Path

import pytest

from convexcodes.cli import main

GOLDEN = Path(__file__).parent / "golden"
ANALYZE = GOLDEN / "analyze"

CASES = {
    "potential-complement-k4": ["--method", "potential"],
    "chamber-pairs-k3": [],
    "chamber-monotone": [],
    "random-union": ["--ambient", "union"],
}


def test_every_golden_directory_is_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, "analyze"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_realize_bundle_matches_golden(case, tmp_path, capsys):
    golden = GOLDEN / case
    out = tmp_path / "bundle"
    assert main(["realize", str(golden / "input.code"), *CASES[case], "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == (golden / "stdout.txt").read_bytes()
    want = sorted(p.name for p in golden.iterdir() if p.name not in ("input.code", "stdout.txt"))
    assert sorted(p.name for p in out.iterdir()) == want
    for name in want:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(p.name for p in ANALYZE.iterdir()))
def test_analyze_matches_golden(case, capsys):
    golden = ANALYZE / case
    status = int((golden / "exit.txt").read_text())
    for extra, name in (([], "stdout.txt"), (["--json"], "stdout.json")):
        assert main(["analyze", str(golden / "input.code"), *extra]) == status
        captured = capsys.readouterr()
        assert captured.out.encode() == (golden / name).read_bytes(), name
        assert captured.err == ""

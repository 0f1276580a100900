"""tools/memos.py, the memo report, runs on a small range and lists every memo."""

import re
import subprocess
import sys
from pathlib import Path

from test_source import LRU_CACHED

TOOL = Path(__file__).resolve().parents[1] / "tools" / "memos.py"


def test_the_memo_report_lists_every_criterion_and_exactly_the_memos():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--n-range", "3..4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    memo_at = lines.index(next(line for line in lines if line.startswith("memo ")))
    criteria = [line.split()[0] for line in lines[2 : memo_at - 1]]
    assert criteria == [str(cid) for cid in range(1, 12)]
    memos = [line.split()[0] for line in lines[memo_at + 1 : -2]]
    assert sorted(memos) == memos and set(memos) == LRU_CACHED
    assert len(memos) == len(LRU_CACHED)
    assert lines[-2].split()[:3] == ["all", str(len(LRU_CACHED)), "memos"]
    # the closing line names the highest of the peak column and its criterion
    rows = lines[2 : memo_at - 1]
    closing = re.fullmatch(r"highest peak (\S+) MB, in criterion (\d+) \((.+)\)", lines[-1])
    assert closing, lines[-1]
    row = rows[int(closing[2]) - 1].split()
    assert closing[1] == row[-1] == max((r.split()[-1] for r in rows), key=float)
    assert closing[3] == " ".join(row[1:-2])

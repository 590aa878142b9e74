"""README figures checked against the files they cite."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# "(`<workload>`) peak(s) at <change median> MB (from <parent median> MB"
_PEAK = re.compile(r"\(`(train_e2e|train_progressive)`\) peaks? at (\d+\.\d\d) MB "
                   r"\(from (\d+\.\d\d) MB")


def _bullet(title: str) -> str:
    """The README bullet that opens with ``- **title**``, its lines joined."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"- **{title}**")
    end = text.find("\n- **", start + 1)
    return " ".join(text[start:end if end >= 0 else None].split())


def test_readme_memory_peaks_are_the_medians_of_the_bench_file_they_cite():
    # each training workload's peak in the memory bullet, and the parent's it
    # fell from, are the summary medians of the one BENCH_*.json the bullet
    # cites, rounded to two decimals
    bullet = _bullet("Training memory held to the account.")
    cited = set(re.findall(r"`(BENCH_\d+\.json)`", bullet))
    assert len(cited) == 1, cited
    summary = json.loads((ROOT / cited.pop()).read_text())["summary"]
    figures = _PEAK.findall(bullet)
    assert sorted(w for w, _, _ in figures) == ["train_e2e", "train_progressive"], figures
    for workload, change, parent in figures:
        peak = summary[workload]["peak_mem_mb"]
        assert (change, parent) == (f"{peak['change_median']:.2f}", f"{peak['parent_median']:.2f}"), \
            (workload, peak)

"""Long runs of one letter: matching keeps no call frame per consumed unit."""

import subprocess
import sys

from lggnorm import resources
from lggnorm.apply import normalize


def test_long_laugh_run_normalizes_like_a_short_one(library, lexicon):
    # 900 letters fit the interpreter's recursion limit, 3,000 do not
    short = normalize("ㅋ" * 900, library.fsts, lexicon)
    assert normalize("ㅋ" * 3000, library.fsts, lexicon) == short


def test_cli_normalizes_a_long_laugh_run(tmp_path):
    path = tmp_path / "laugh.txt"
    path.write_text("ㅋ" * 3000, encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "lggnorm", "normalize",
         "--dict", str(resources.dictionary_path("core.dic")), str(path)],
        capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""

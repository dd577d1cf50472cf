"""Default CLI output is byte-stable: a fixed argv corpus against recorded stdout.

``tests/data/cli_golden.json`` holds the exit code and stdout of every argv
below.  To re-record it after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

with ``TRIG_ENGINE_DIGITS`` unset, and inspect the diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from trigint import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def corpus() -> list[list[str]]:
    argvs = []
    for family in ("c", "s"):
        for n in (0, 1, 2, 3, 6):
            for p in (0, 1, 3, 6):
                for fmt in ("exact", "latex", "float", "json"):
                    base = ["eval", "--family", family, "--n", str(n), "--p", str(p), "--format", fmt]
                    argvs.append(base)
                    argvs.append(base + ["--verify"])
    # large coefficients, both parities, rendered exactly
    for family, n, p in (("c", 23, 25), ("c", 40, 12), ("s", 11, 24)):
        for fmt in ("exact", "latex", "json"):
            argvs.append(["eval", "--family", family, "--n", str(n), "--p", str(p), "--format", fmt])
    for entry in cli._GR_ENTRIES:
        for fmt in ("md", "json"):
            argvs.append(["table", "--gr", entry, "--format", fmt])
    argvs.append(["identities", "--check", "all"])
    argvs.append(["identities", "--check", "all", "--verbose"])
    argvs.append(["verify", "--family", "complete", "--format", "json"])
    return argvs


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def record() -> list[dict]:
    return [{"argv": argv, "exit": code, "stdout": stdout}
            for argv, (code, stdout) in ((argv, run_cli(argv)) for argv in corpus())]


def test_corpus_matches_recording(monkeypatch):
    monkeypatch.delenv("TRIG_ENGINE_DIGITS", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [case["argv"] for case in golden] == corpus()
    changed = []
    for case in golden:
        code, stdout = run_cli(case["argv"])
        if code != case["exit"] or stdout.encode("utf-8") != case["stdout"].encode("utf-8"):
            changed.append(" ".join(case["argv"]))
    assert not changed, changed


if __name__ == "__main__":
    if "TRIG_ENGINE_DIGITS" in os.environ:
        sys.exit("unset TRIG_ENGINE_DIGITS before recording")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

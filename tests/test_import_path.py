"""numpy stays off the import path until a vector is integrated.

Each test runs a fresh interpreter with ``PYTHONPATH=src``, so modules that
earlier tests imported into this process do not count.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

GR_ENTRIES = ("3.621.3", "3.621.4", "3.761.11", "3.821.3", "3.822.1", "3.822.2", "3.821.14",
              "3.764.1", "3.764.2")


def run_fresh(body: str) -> dict:
    """Run ``body`` in a new interpreter; it leaves its findings in ``out``."""
    script = "import contextlib, io, json, sys\nout = {}\n" + textwrap.dedent(body) + (
        "\nprint(json.dumps(out))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("TRIG_ENGINE_DIGITS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_trigint_leaves_numpy_out():
    out = run_fresh("""
        import trigint
        out["numpy"] = "numpy" in sys.modules
    """)
    assert out == {"numpy": False}


def test_import_cli_leaves_numpy_out():
    out = run_fresh("""
        import trigint.cli
        out["numpy"] = "numpy" in sys.modules
    """)
    assert out == {"numpy": False}


def test_commands_without_verify_leave_numpy_out():
    argvs = [["eval", "--family", "c", "--n", "3", "--p", "2", "--format", fmt]
             for fmt in ("exact", "latex", "float", "json")]
    argvs += [["table", "--gr", entry, "--range", "0..3"] for entry in GR_ENTRIES]
    argvs += [["halfline", "--kind", kind, "--n", "1", "--p", "1/3", "--b", "0.5", "--format", fmt]
              for kind in ("cos", "sin") for fmt in ("float", "json")]
    out = run_fresh(f"""
        from trigint.cli import main
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            out[" ".join(argv)] = [code, "numpy" in sys.modules]
    """)
    assert out == {" ".join(argv): [0, False] for argv in argvs}


def test_verify_loads_numpy_and_passes():
    argvs = [
        ["eval", "--family", "s", "--n", "3", "--p", "2", "--verify"],
        ["halfline", "--kind", "cos", "--n", "1", "--p", "1/2", "--verify"],
    ]
    out = run_fresh(f"""
        from trigint.cli import main
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            out[" ".join(argv)] = [code, "numpy" in sys.modules]
    """)
    assert out == {" ".join(argv): [0, True] for argv in argvs}


@pytest.mark.parametrize("module", ["recurrence", "closedform", "eulersums", "cli"])
def test_module_imported_first(module):
    # recurrence.cos_moment imports closedform, which imports recurrence: a
    # circular import there shows only in an interpreter that loads it cold
    out = run_fresh(f"""
        import trigint.{module}
        from trigint import recurrence
        out["equal"] = recurrence.cos_moment(5, 3) == recurrence.sweep_moment("cos", 5, 3)
    """)
    assert out == {"equal": True}

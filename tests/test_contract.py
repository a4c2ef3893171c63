"""The output contract: report text, `--json` output and exit codes.

Each case runs one command on one input from the input's data
directory, so the file name in the output is relative, and compares
stdout byte for byte with ``tests/data/expected/<file>.txt`` (text) or
``<file>.json`` (``--json``).  Stderr must be empty.

The inputs are the 12 bundled certificates, the 5 bundled ledgers and
the bundled polyid file, plus ``tests/data/verdict-paths.*``: a
certificate with one step per FAIL and ERROR path of every step kind
and checker, and a failing ledger and polyid file.

The same cases, the `-p/q` argument cases and the `--json` before or
after the subcommand cases of ``test_cli``, and a certificate with a
990-term operator chain are replayed under each other installed Python
that ``pyproject.toml`` allows, one subprocess per version.

The expected files pin the reports as they are; a change that means
to alter a report regenerates the affected file, e.g.

    cd src/lctforge/data && lctforge verify certs/pukhlikov.cert \\
        > ../../../tests/data/expected/pukhlikov.cert.txt
"""

import contextlib
import functools
import glob
import io
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

import lctforge
from lctforge import data_path
from lctforge.certs import CHECKERS, CheckStmt, parse_cert
from lctforge.cli import main
import test_cli

TESTS = Path(__file__).resolve().parent / "data"
EXPECTED = TESTS / "expected"
DATA = Path(data_path("certs")).parent

COMMANDS = {".cert": "verify", ".ledger": "ledger", ".polyid": "poly-id"}

INPUTS = (
    [(DATA, f"certs/{p.name}") for p in sorted(DATA.glob("certs/*.cert"))]
    + [(DATA, f"ledgers/{p.name}")
       for p in sorted(DATA.glob("ledgers/*.ledger"))]
    + [(DATA, "polyid/icosahedral-invariants.polyid")]
    + [(TESTS, f"verdict-paths{ext}") for ext in COMMANDS]
)

CASES = [(base, name, mode) for base, name in INPUTS
         for mode in ("txt", "json")]


def test_inputs_are_all_there():
    assert len(INPUTS) == 12 + 5 + 1 + 3
    assert len(list(EXPECTED.iterdir())) == 2 * len(INPUTS)


def test_verdict_paths_cert_has_a_step_for_every_checker():
    cert = parse_cert((TESTS / "verdict-paths.cert").read_text())
    names = {s.name for s in cert.steps if isinstance(s, CheckStmt)}
    # one step names no checker, for the unknown-checker ERROR
    assert names == set(CHECKERS) | {"no_such_checker"}


def _case(base, name, mode):
    """The argv, expected stdout and exit status of one case."""
    command = COMMANDS[Path(name).suffix]
    argv = [command] + (["--json"] if mode == "json" else []) + [name]
    expected = (EXPECTED / f"{Path(name).name}.{mode}").read_text()
    # verdict-paths.cert has ERROR steps (exit 2); the other verdict-paths
    # inputs FAIL (exit 1) and every bundled input passes
    code = 0 if base == DATA else 2 if name.endswith(".cert") else 1
    return argv, expected, code


@pytest.mark.parametrize(
    "base, name, mode", CASES,
    ids=[f"{Path(name).name}-{mode}" for _, name, mode in CASES],
)
def test_output_contract(base, name, mode, monkeypatch, capsys):
    monkeypatch.chdir(base)
    argv, expected, want = _case(base, name, mode)
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == expected
    assert err == ""
    assert code == want


# ------------------------------------------------- other Python versions

# Runs the cases it reads as JSON on stdin and writes the ones whose
# [status, stdout, stderr] differ, with what they gave, as JSON.
REPLAY = """
import contextlib, io, json, os, sys
from lctforge.cli import main
bad = []
for cwd, argv, want in json.load(sys.stdin):
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    got = [code, out.getvalue(), err.getvalue()]
    if got != want:
        bad.append([argv, got])
json.dump(bad, sys.stdout)
"""


def _runs(exe, *args, **kwargs):
    # a replay takes about 0.5 s; the timeout also ends one whose LPs
    # pivot without end, since the conftest guard does not reach it
    return subprocess.run([exe, *args], capture_output=True, text=True,
                          timeout=30, **kwargs)


@functools.cache
def _interpreter(version):
    """A python<version> that starts and is that version, from PATH or
    pyenv's versions, or None.  A pyenv shim for a version that pyenv
    is not set up to select fails to start and is passed over."""
    pyenv = os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")
    candidates = [shutil.which(f"python{version}")] + sorted(glob.glob(
        f"{pyenv}/versions/{version}.*/bin/python{version}"))
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    for exe in filter(None, candidates):
        try:
            if _runs(exe, "-c", probe).stdout.strip() == version:
                return exe
        except (OSError, subprocess.TimeoutExpired):
            pass
    return None


def _in_process(argv):
    """[status, stdout, stderr] of main(argv) in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_contract_under_other_python_versions(version, tmp_path):
    if version == "%d.%d" % sys.version_info[:2]:
        pytest.skip("the running interpreter, which the suite covers")
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no working python{version} found")
    cases = []
    for base, name, mode in CASES:
        argv, expected, code = _case(base, name, mode)
        cases.append([str(base), argv, [code, expected, ""]])
    for argv, code, out, err in test_cli.NEGATIVE_FRACTION_CASES:
        cases.append([str(TESTS), argv, [code, out, err]])
    # --json before and after the subcommand give the same document
    for command, rest in test_cli.JSON_FLAG_CASES:
        want = _in_process([command, "--json", *rest])
        for argv in (["--json", command, *rest], [command, "--json", *rest]):
            cases.append([str(TESTS), argv, want])
    # a 990-term chain, which once ran out of stack under some versions
    # and passed under others
    chain = tmp_path / "chain.cert"
    chain.write_text(f'cert "chain"\nassert {"+".join(["1"] * 990)} == 990\n')
    want = _in_process(["verify", str(chain)])
    assert want[0] == 0
    cases.append([str(tmp_path), ["verify", str(chain)], want])
    src = Path(lctforge.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = _runs(exe, "-c", REPLAY, input=json.dumps(cases), env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []

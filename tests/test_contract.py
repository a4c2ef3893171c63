"""The output contract: report text, `--json` output and exit codes.

Each case runs one command on one input from the input's data
directory, so the file name in the output is relative, and compares
stdout byte for byte with ``tests/data/expected/<file>.txt`` (text) or
``<file>.json`` (``--json``).  Stderr must be empty.

The inputs are the 12 bundled certificates, the 5 bundled ledgers and
the bundled polyid file, plus ``tests/data/verdict-paths.*``: a
certificate with one step per FAIL and ERROR path of every step kind
and checker, and a failing ledger and polyid file.

The expected files pin the reports as they are; a change that means
to alter a report regenerates the affected file, e.g.

    cd src/lctforge/data && lctforge verify certs/pukhlikov.cert \\
        > ../../../tests/data/expected/pukhlikov.cert.txt
"""

from pathlib import Path

import pytest

from lctforge import data_path
from lctforge.cli import main

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


@pytest.mark.parametrize(
    "base, name, mode", CASES,
    ids=[f"{Path(name).name}-{mode}" for _, name, mode in CASES],
)
def test_output_contract(base, name, mode, monkeypatch, capsys):
    monkeypatch.chdir(base)
    command = COMMANDS[Path(name).suffix]
    argv = [command] + (["--json"] if mode == "json" else []) + [name]
    code = main(argv)
    out, err = capsys.readouterr()
    expected = (EXPECTED / f"{Path(name).name}.{mode}").read_text()
    assert out == expected
    assert err == ""
    # verdict-paths.cert has ERROR steps (exit 2); the other verdict-paths
    # inputs FAIL (exit 1) and every bundled input passes
    assert code == (0 if base == DATA else 2 if name.endswith(".cert") else 1)

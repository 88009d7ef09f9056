"""CLI output against recorded golden output on a fixed command set.

Metadata (except the run-specific `config_hash`) and rows must match:
strings, ints and bools exactly, floats to 1e-9 relative.  Regenerate
`golden_cli.json` with `PYTHONPATH=src python tests/test_cli_golden.py`
only when a change of the numbers is intended.
"""
import io
import json
import os

import pytest

from trionlab.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

COMMANDS = [
    ["masses", "--chirality", "6,5"],
    ["bands", "--chirality", "4,2", "--points", "5"],
    ["exciton", "--radius", "0.1", "--model", "1d"],
    ["exciton", "--radius", "0.1", "--model", "2d"],
    ["trion", "--chirality", "6,5"],
    ["trion", "--radius", "0.1", "--sigma", "0.5", "--charge", "+",
     "--model", "1d"],
    ["hf", "--radius", "0.3"],
    ["probability", "--radius", "0.1", "--kind", "exciton", "--grid", "11"],
    ["sweep-sigma", "--radius", "0.1", "--points", "3", "--model", "1d"],
    ["sweep-epsilon", "--chirality", "6,5", "--points", "4"],
    ["sweep-species", "--rmin", "3.7", "--rmax", "3.8"],
    ["optimize", "--problem", "exciton", "--model", "1d", "--max-steps", "1"],
]


def _output(argv):
    out = io.StringIO()
    assert run(argv + ["--format", "json", "--no-cache"], stdout=out) == 0
    doc = json.loads(out.getvalue())
    doc["metadata"].pop("config_hash")
    return doc


def _same(want, got):
    if isinstance(want, float) or isinstance(got, float):
        return got == pytest.approx(want, rel=1e-9)
    return type(want) is type(got) and want == got


def _load():
    with open(GOLDEN) as fh:
        return {tuple(entry["argv"]): entry for entry in json.load(fh)}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
def test_cli_matches_golden(argv):
    want = _load()[tuple(argv)]
    got = _output(argv)
    assert got["metadata"].keys() == want["metadata"].keys()
    for key, value in want["metadata"].items():
        assert _same(value, got["metadata"][key]), key
    assert len(got["rows"]) == len(want["rows"])
    for i, (w, g) in enumerate(zip(want["rows"], got["rows"])):
        assert list(g) == list(w), i
        for key in w:
            assert _same(w[key], g[key]), (i, key)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump([dict(argv=argv, **_output(argv)) for argv in COMMANDS],
                  fh, indent=1)
        fh.write("\n")

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

from trionlab import cli
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
    ["probability", "--radius", "0.1", "--kind", "trion", "--grid", "11"],
    ["optimize", "--problem", "trion", "--model", "2d", "--max-steps", "0"],
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


def _check_golden(argv, got):
    want = _load()[tuple(argv)]
    assert got["metadata"].keys() == want["metadata"].keys()
    for key, value in want["metadata"].items():
        assert _same(value, got["metadata"][key]), key
    assert len(got["rows"]) == len(want["rows"])
    for i, (w, g) in enumerate(zip(want["rows"], got["rows"])):
        assert list(g) == list(w), i
        for key in w:
            assert _same(w[key], g[key]), (i, key)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
def test_cli_matches_golden(argv):
    _check_golden(argv, _output(argv))


def _text(argv):
    out = io.StringIO()
    assert run(argv, stdout=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt, other", [("csv", "json"), ("json", "csv")])
@pytest.mark.parametrize("argv", [COMMANDS[i] for i in (0, 1, 2, 8)],
                         ids=lambda a: " ".join(a))
def test_cache_hit_bytes_match_miss(argv, fmt, other, tmp_path, monkeypatch):
    """A hit writes the bytes of the miss before it, in the miss's format,
    and of an uncached run in the other format; the JSON still matches the
    golden record."""
    cached = argv + ["--cache-dir", str(tmp_path)]
    miss = _text(cached + ["--format", fmt])
    monkeypatch.setattr(cli, "HANDLERS", {})     # from here on, hits only
    assert _text(cached + ["--format", fmt]) == miss
    hit = _text(cached + ["--format", other])
    monkeypatch.undo()
    assert hit == _text(argv + ["--format", other, "--no-cache"])
    doc = json.loads(miss if fmt == "json" else hit)
    doc["metadata"].pop("config_hash")
    _check_golden(argv, doc)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump([dict(argv=argv, **_output(argv)) for argv in COMMANDS],
                  fh, indent=1)
        fh.write("\n")

"""Command-line interface: dispatch, formats, exit codes, cache, config."""
import io
import json
import os
import sys
import threading
import warnings

import pytest

from trionlab.cache import ResultCache
from trionlab import cli
from trionlab.cli import (COMMANDS, IO_OPTIONS, SHARED, build_parser,
                          config_argv, main, run)


def _run(argv):
    out = io.StringIO()
    code = run(argv, stdout=out)
    return code, out.getvalue()


def test_masses_6_5():
    code, text = _run(["masses", "--chirality", "6,5", "--no-cache"])
    assert code == 0
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("n,")][0]
    values = lines[lines.index(header) + 1].split(",")
    row = dict(zip(header.split(","), values))
    assert float(row["m_e_m0"]) == pytest.approx(0.0803, abs=2e-3)
    assert float(row["m_h_m0"]) == pytest.approx(0.0866, abs=2e-3)
    assert float(row["mu_m0"]) == pytest.approx(0.0417, abs=1e-3)
    assert any("fermi_velocity" in line for line in lines)


@pytest.mark.parametrize("field, value", [("a", "nan"), ("t", "inf")])
def test_non_finite_tight_binding_parameter_rejected(field, value, tmp_path,
                                                     capsys):
    argv = ["masses", "--chirality", "6,5", f"--{field}", value,
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: tight-binding parameter {field} must be "
                          "finite")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["trion", "--chirality", "6,5", "--epsilon", "nan"],
    ["trion", "--chirality", "6,5", "--epsilon", "inf"],
    ["sweep-species", "--rmin", "3.7", "--rmax", "3.8", "--epsilon", "nan"],
    ["sweep-epsilon", "--chirality", "6,5", "--points", "3", "--stop", "nan"],
])
def test_non_finite_epsilon_rejected(argv, tmp_path, capsys):
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dielectric constant epsilon must be "
                          "finite")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, name", [
    (["sweep-radius"], "radius r"), (["sweep-sigma"], "sigma"),
    (["sweep-epsilon", "--chirality", "6,5"], "dielectric constant epsilon"),
])
@pytest.mark.parametrize("option, value, message", [
    ("--start", "-inf", "{name} must be finite, got --start -inf"),
    ("--stop", "inf", "{name} must be finite, got --stop inf"),
    ("--stop", "nan", "{name} must be finite, got --stop nan"),
    ("--points", "0", "--points must be >= 1, got 0"),
    ("--points", "-2", "--points must be >= 1, got -2"),
])
def test_bad_sweep_grid_rejected(command, name, option, value, message,
                                 tmp_path, capsys):
    """Every sweep checks its grid before any numerics run: one error line
    naming the option, no numpy warning, nothing cached."""
    argv = command + [f"{option}={value}", "--cache-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message.format(name=name)}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", ["0", "-2"])
def test_bad_bands_points_rejected(value, tmp_path, capsys):
    """bands checks --points as the sweeps do: no empty table, no numpy
    message, nothing cached."""
    argv = ["bands", "--chirality", "4,2", f"--points={value}",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: --points must be >= 1, got {value}\n"
    assert os.listdir(tmp_path) == []


BAD_INPUTS = [
    (["sweep-radius", "--points", "1", "--models", "1d",
      "--methods", "full,foo"], "unknown sweep method 'foo' (methods are "
     "full, hf)"),
    (["sweep-radius", "--points", "1", "--models", "foo"],
     "unknown sweep model 'foo' (models are 1d, 2d)"),
    (["sweep-radius", "--points", "1", "--models", "1d,1d"],
     "repeated sweep model in models 1d, 1d"),
    (["probability", "--radius", "0.1", "--kind", "exciton", "--grid", "0"],
     "--grid must be >= 1, got 0"),
    (["probability", "--radius", "0.1", "--kind", "exciton", "--grid=-2"],
     "--grid must be >= 1, got -2"),
    (["probability", "--radius", "0.1", "--kind", "exciton", "--sigma",
      "0.5"], "--sigma applies to --kind trion only"),
    (["sweep-species", "--rmax", "inf"],
     "species range needs finite r_min <= r_max, got r_min 3.0, r_max inf"),
    (["sweep-species", "--rmax", "nan"],
     "species range needs finite r_min <= r_max, got r_min 3.0, r_max nan"),
    (["sweep-species", "--rmin", "5", "--rmax", "3"],
     "species range needs finite r_min <= r_max, got r_min 5.0, r_max 3.0"),
    (["optimize", "--problem", "exciton", "--model", "1d", "--max-steps=-1"],
     "max_steps must be >= 0, got -1"),
    (["trion", "--radius", "0.1", "--sigma", "1e308"],
     "sigma=1e+308 overflows the mixing weight: inf"),
    (["trion", "--radius", "0.1", "--sigma", "1e-310", "--charge", "+"],
     "sigma=1e-310 overflows the mixing weight: nan"),
    (["trion", "--radius", "1e308"],
     "radius r=1e+308 overflows r/r0 (r0=0.1)"),
    (["sweep-epsilon", "--chirality", "6,5", "--points", "2"],
     "power-law fit needs at least 3 distinct x values"),
    (["sweep-epsilon", "--chirality", "6,5", "--points", "1"],
     "power-law fit needs at least 3 distinct x values"),
    (["sweep-epsilon", "--chirality", "6,5", "--start", "3", "--stop", "3"],
     "power-law fit needs at least 3 distinct x values"),
    (["trion", "--chirality", "6,5", "--radius", "0.3"],
     "give exactly one of --chirality and --radius"),
] + [(["trion", "--radius", "0.1", f"--{option}", value],
      f"--{option} applies to --chirality, not --radius")
     for option, value in (("epsilon", "5"), ("t", "-3"), ("s", "0.2"),
                           ("a", "2.5"))]


@pytest.mark.parametrize("argv, message", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_rejected(argv, message, tmp_path, capsys):
    """Inputs that used to run silently, print an empty table, warn or die
    in a traceback: one error line naming the input, no numpy warning,
    exit 1, nothing cached."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_metadata_and_header_present():
    code, text = _run(["exciton", "--radius", "0.1", "--model", "1d",
                       "--no-cache"])
    assert code == 0
    lines = text.splitlines()
    assert any(line.startswith("# version:") for line in lines)
    assert any(line.startswith("# config_hash:") for line in lines)
    assert any(line.startswith("# units_note:") for line in lines)
    header = [line for line in lines if not line.startswith("#")][0]
    assert header.split(",") == ["r_aB", "model", "E_X_Ry"]


def test_json_format():
    code, text = _run(["exciton", "--radius", "0.1", "--model", "1d",
                       "--format", "json", "--no-cache"])
    assert code == 0
    doc = json.loads(text)
    assert doc["rows"][0]["model"] == "1d"
    assert doc["rows"][0]["E_X_Ry"] > 0


def test_output_file(tmp_path):
    path = tmp_path / "out.csv"
    code, text = _run(["exciton", "--radius", "0.1", "--model", "1d",
                       "--output", str(path), "--no-cache"])
    assert code == 0
    assert text == ""
    assert path.read_text().count("\n") >= 2


def test_byte_identical_reruns():
    argv = ["sweep-sigma", "--radius", "0.1", "--points", "3",
            "--model", "1d", "--no-cache"]
    _, a = _run(argv)
    _, b = _run(argv)
    assert a == b


# options a command's handler does not read: each is a usage error
UNREAD_OPTIONS = [
    ["masses", "--chirality", "6,5", "--outer-order", "32"],
    ["bands", "--chirality", "4,2", "--outer-order", "32"],
    ["exciton", "--radius", "0.1", "--sigma", "0.5"],
    ["hf", "--radius", "0.3", "--sigma", "0.5"],
] + [[*command, f"--{field}", value]
     for command in (["optimize", "--problem", "exciton"], ["sweep-radius"],
                     ["sweep-sigma"])
     for field, value in (("t", "-2.7"), ("s", "0.2"), ("a", "2.5"))]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["exciton", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    assert len(UNREAD_OPTIONS) == 13
    for argv in UNREAD_OPTIONS:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-cache"])
        assert exc.value.code == 2, argv


def test_domain_error_exit_1(capsys):
    assert main(["exciton"]) == 1          # neither chirality nor radius
    assert main(["masses", "--chirality", "6,notanumber",
                 "--no-cache"]) == 1
    assert main(["masses", "--chirality", "6,3", "--no-cache"]) == 1  # metallic
    assert "error:" in capsys.readouterr().err


def test_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    argv = ["exciton", "--radius", "0.1", "--model", "1d",
            "--cache-dir", str(cache)]
    _, a = _run(argv)
    entries = os.listdir(cache)
    assert len(entries) == 1
    _, b = _run(argv)
    assert a == b
    assert len(os.listdir(cache)) == 1


def test_cache_key_changes_with_quadrature(tmp_path):
    cache = tmp_path / "cache"
    _run(["exciton", "--radius", "0.1", "--model", "1d",
          "--cache-dir", str(cache)])
    _run(["exciton", "--radius", "0.1", "--model", "1d",
          "--cache-dir", str(cache), "--outer-order", "32"])
    assert len(os.listdir(cache)) == 2


def test_cache_shared_across_formats(tmp_path):
    cache = tmp_path / "cache"
    argv = ["masses", "--chirality", "6,5", "--cache-dir", str(cache)]
    _, csv_text = _run(argv + ["--format", "csv"])
    _, json_text = _run(argv + ["--format", "json"])
    assert len(os.listdir(cache)) == 1
    lines = [line for line in csv_text.splitlines()
             if not line.startswith("#")]
    row = json.loads(json_text)["rows"][0]
    assert lines[0].split(",") == list(row)
    assert [float(v) for v in lines[1].split(",")] == \
        pytest.approx([float(v) for v in row.values()], rel=1e-9)


def test_cache_key_changes_with_source(tmp_path, monkeypatch):
    from trionlab import cache as cache_module

    cache = tmp_path / "cache"
    argv = ["masses", "--chirality", "6,5", "--cache-dir", str(cache)]
    _run(argv)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "older")
    _run(argv)
    assert len(os.listdir(cache)) == 2


@pytest.mark.parametrize("record", [
    lambda key: "{not json",
    lambda key: "[1, 2]",
    lambda key: json.dumps({"key": key, "payload": {"rows": []}}),
], ids=["not-json", "not-object", "no-metadata"])
def test_cache_corrupt_entry_recovers(record, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["exciton", "--radius", "0.1", "--model", "1d",
            "--cache-dir", str(cache)]
    _, a = _run(argv)
    name = os.listdir(cache)[0]
    entry = os.path.join(cache, name)
    with open(entry, "w") as fh:
        fh.write(record(name[:-len(".json")]))
    code, b = _run(argv)
    assert code == 0
    assert b == a
    assert "corrupt cache entry" in capsys.readouterr().err
    # entry was rewritten and is valid again
    with open(entry) as fh:
        json.load(fh)


def test_cache_env_variable(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("TRIONLAB_CACHE", str(cache))
    _run(["exciton", "--radius", "0.1", "--model", "1d"])
    assert len(os.listdir(cache)) == 1
    # --no-cache disables it
    monkeypatch.setenv("TRIONLAB_CACHE", str(tmp_path / "other"))
    _run(["exciton", "--radius", "0.1", "--model", "1d", "--no-cache"])
    assert not os.path.exists(tmp_path / "other")


@pytest.mark.parametrize("blocked", ["", ".tmp"], ids=["entry", "old-temp"])
def test_cache_write_failure_still_emits_result(blocked, tmp_path, capsys):
    """A directory where the entry (or the old fixed temp file name) would
    be written: the result is still printed, with a warning where it could
    not be cached."""
    cache = tmp_path / "cache"
    argv = ["exciton", "--radius", "0.1", "--model", "1d",
            "--cache-dir", str(cache)]
    _, a = _run(argv)
    name = os.listdir(cache)[0]
    os.remove(cache / name)
    os.mkdir(cache / (name + blocked))
    capsys.readouterr()
    code, b = _run(argv)
    assert code == 0
    assert b == a
    err = capsys.readouterr().err
    assert ("result not cached" in err) == (blocked == "")
    assert sorted(os.listdir(cache)) == sorted({name, name + blocked})


def test_cache_concurrent_writers_keep_their_own_temp_files(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """A second writer of the same key finishing between the first one's
    write and rename leaves the first one's write intact."""
    cache = ResultCache(str(tmp_path))
    first = {"metadata": {"writer": 1}, "rows": []}
    second = {"metadata": {"writer": 2}, "rows": []}
    replace = os.replace

    def racing_replace(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        cache.put("k", second)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    cache.put("k", first)
    assert cache.get("k") == first
    assert os.listdir(tmp_path) == ["k.json"]
    assert capsys.readouterr().err == ""


def test_cache_threaded_writers(tmp_path, capsys):
    """Eight threads writing one key 25 times each: every write lands
    whole, with no warning and no temp file left."""
    cache = ResultCache(str(tmp_path))
    payloads = [{"metadata": {"writer": i}, "rows": [{"n": i}]}
                for i in range(8)]
    errors = []

    def write(payload):
        try:
            for _ in range(25):
                cache.put("k", payload)
        except Exception as exc:    # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(p,))
                   for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache.get("k") in payloads
    assert os.listdir(tmp_path) == ["k.json"]
    assert capsys.readouterr().err == ""


def test_cache_dir_that_is_a_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    argv = ["exciton", "--radius", "0.1", "--model", "1d",
            "--cache-dir", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unusable cache directory: ")
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option, path, message", [
    ("--config", "missing.cfg", "error: [Errno 2] No such file or directory"),
    ("--output", "missing-dir/x.csv", "error: --output "),
    ("--output", "", "error: --output "),
], ids=["config", "output", "output-is-a-directory"])
def test_missing_file_is_one_error_line(option, path, message, tmp_path,
                                        capsys):
    """A --config that names no file, or an --output in a directory that
    does not exist or that is a directory, is one error line and exit 1,
    and nothing is cached: --output is checked before the cache lookup."""
    cache = tmp_path / "cache"
    argv = ["exciton", "--radius", "0.1", option, str(tmp_path / path),
            "--cache-dir", str(cache)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not cache.exists() or os.listdir(cache) == []


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 0.15   # in effective Bohr radii\nmodel = 1d\n")
    _, from_cfg = _run(["exciton", "--config", str(cfg), "--no-cache"])
    assert "0.15,1d," in from_cfg
    _, overridden = _run(["exciton", "--config", str(cfg),
                          "--radius", "0.2", "--no-cache"])
    assert "0.2,1d," in overridden


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("radius 0.15\n")
    assert main(["exciton", "--config", str(cfg), "--no-cache"]) == 1


@pytest.mark.parametrize("line", ["rel_tl = 1e-3", "rel_tol = 1e-3",
                                  "angular-order = 32", "charge = +",
                                  "command = trion", "sigma = 0.5"])
def test_config_file_unknown_key(tmp_path, capsys, line):
    """Keys that are not options of the active subcommand (`charge` and
    `sigma` belong to `trion`, not `exciton`) are an error, not a silent
    no-op."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("radius = 0.1\n" + line + "\n")
    assert main(["exciton", "--config", str(cfg), "--no-cache"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_value_parsed_like_its_flag(tmp_path):
    """A config value goes through its flag's type: `sigma = 1` is the
    float 1.0 of `--sigma 1`, in the output and in the cache key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 1\n")
    argv = ["trion", "--radius", "0.1", "--model", "1d", "--format", "json",
            "--no-cache"]
    _, from_cfg = _run(argv + ["--config", str(cfg)])
    _, from_flag = _run(argv + ["--sigma", "1"])
    assert from_cfg == from_flag
    assert json.loads(from_cfg)["rows"][0]["sigma"] == 1.0


@pytest.mark.parametrize("argv, line, option", [
    (["exciton", "--radius", "0.1"], "model = 3d", "--model"),
    (["exciton", "--radius", "0.1"], "format = xml", "--format"),
    (["bands", "--chirality", "4,2"], "points = 2.5", "--points"),
    (["sweep-radius", "--points", "1"], "sigma = true", "--sigma"),
])
def test_config_bad_value_fails_as_its_flag(argv, line, option, tmp_path,
                                            capsys):
    """A config value the flag would refuse is a usage error (exit 2)
    with argparse's one error line naming the option, and nothing cached."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg), "--cache-dir", str(cache)])
    assert exc.value.code == 2
    errors = [e for e in capsys.readouterr().err.splitlines() if "error:" in e]
    assert len(errors) == 1
    assert f"error: argument {option}: invalid" in errors[0]
    assert os.listdir(cache) == []


@pytest.mark.parametrize("value, code, entries", [("true", 0, 0),
                                                  ("false", 0, 1),
                                                  ("yes", 1, 0)])
def test_config_switch_takes_true_or_false(value, code, entries, tmp_path,
                                           capsys):
    """`no-cache = true` skips the cache, `false` keeps it, and any other
    value is one error line, exit 1."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"radius = 0.1\nmodel = 1d\nno-cache = {value}\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["exciton", "--config", str(cfg), "--cache-dir", str(cache)]
    assert main(argv) == code
    assert len(os.listdir(cache)) == entries
    if code:
        assert capsys.readouterr().err == \
            "error: config switch no_cache takes true or false\n"


def test_species_defaults_come_from_the_library():
    """--epsilon, --t, --s and --a default to not given, so Environment
    and TightBindingParams supply the numbers of a run without them."""
    for sub in build_parser()[1].values():
        assert [sub.get_default(o) for o in ("epsilon", "t", "s", "a")] == \
            [None] * 4
    argv = ["trion", "--chirality", "6,5", "--no-cache"]
    explicit = ["--epsilon", "3.5", "--t", "-2.89", "--s", "0.1",
                "--a", "2.46"]
    outputs = [[line for line in _run(a)[1].splitlines()
                if not line.startswith("# config_hash:")]
               for a in (argv, argv + explicit)]
    assert outputs[0] == outputs[1]


@pytest.fixture
def solves(monkeypatch):
    """The commands whose handler ran, i.e. the cache misses, in order."""
    ran = []
    for name, handler in cli.HANDLERS.items():
        monkeypatch.setitem(cli.HANDLERS, name, lambda args, h=handler:
                            ran.append(args.command) or h(args))
    return ran


@pytest.mark.parametrize("plain, default, other", [
    (["masses", "--chirality", "6,5"], ["--t", "-2.89"], ["--t", "-2.7"]),
    (["masses", "--chirality", "6,5"], ["--s", "0.1", "--a", "2.46"],
     ["--a", "2.5"]),
    (["trion", "--chirality", "6,5"], ["--epsilon", "3.5"],
     ["--epsilon", "4"]),
])
def test_spelled_out_library_default_hits_the_plain_entry(
        plain, default, other, solves, tmp_path):
    """A --t, --s, --a or --epsilon equal to its library default keys the
    entry of omitting it, so that run is a hit; another value is a miss
    with an entry of its own."""
    cache = tmp_path / "cache"
    argv = plain + ["--cache-dir", str(cache)]
    _, first = _run(argv)
    _, again = _run(argv + default)
    assert again == first
    assert solves == [plain[0]]
    assert len(os.listdir(cache)) == 1
    _run(argv + other)
    assert solves == [plain[0]] * 2
    assert len(os.listdir(cache)) == 2


def _outcome(parser, argv, capsys):
    """(vars of the namespace or None, exit code, captured out and err) of
    parsing `argv`."""
    try:
        result = vars(parser.parse_args(argv)), 0
    except SystemExit as exc:
        result = None, exc.code
    return (*result, capsys.readouterr())


def _parse_cases():
    """Per command: its required options, an unknown option, and a bad
    value of each option with a type or choices."""
    required = {"chirality": "6,5", "problem": "exciton"}
    for name, (_, _, options) in COMMANDS.items():
        merged = {opt: {**SHARED.get(opt, {}), **keywords}
                  for opt, keywords in {**IO_OPTIONS, **options}.items()}
        base = [name] + [a for opt, kw in merged.items() if kw.get("required")
                         for a in (f"--{opt}", required[opt])]
        yield base, 0
        yield base + ["--bogus"], 2
        yield from ((base + [f"--{opt}", "bogus"], 2)
                    for opt, kw in merged.items()
                    if "type" in kw or "choices" in kw)


def test_one_subparser_parses_as_the_full_parser(capsys):
    """`run` adds options to its own command's subparser alone; that parser
    gives the namespace (and so the cache key), exit code and messages of
    the parser of every command."""
    cases = list(_parse_cases())
    assert len(cases) == 103
    for argv, code in cases:
        one = _outcome(build_parser(argv[0])[0], argv, capsys)
        assert one == _outcome(build_parser()[0], argv, capsys), argv
        assert one[1] == code, argv
        assert ("error:" in one[2].err) == bool(code), argv


@pytest.mark.parametrize("text", ["radius = 0.1\nsigma = 1\nno-cache = true",
                                  "model = 3d", "charge = x"])
def test_config_file_parses_as_with_the_full_parser(text, tmp_path, capsys):
    """A --config file's lines, put after the command as flags, parse to
    the same namespace or the same usage error with either parser."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    argv = ["trion", "--config", str(cfg), "--model", "1d"]
    outcomes = []
    for parser in (build_parser()[0], build_parser("trion")[0]):
        args = parser.parse_args(argv)
        outcomes.append(_outcome(parser, config_argv(argv, args), capsys))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == (0 if "sigma" in text else 2)


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"],
                                  ["bogus", "--radius", "0.1"],
                                  ["--version"], ["trion", "--help"]])
def test_help_and_unknown_command_print_as_the_full_parser(argv, capsys):
    """Top-level help, a missing or unknown command and a command's help
    print through `main` exactly what the parser of every command does."""
    _, code, printed = _outcome(build_parser()[0], argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == (code, printed)
    assert printed.out or "error:" in printed.err


def test_bands_rows():
    code, text = _run(["bands", "--chirality", "4,2", "--points", "5",
                       "--no-cache"])
    assert code == 0
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    # 2 N subbands (N = 28 for (4,2)) x 5 points + header
    assert lines[0] == "subband,k_invA,E_c_eV,E_v_eV"
    assert len(lines) == 1 + 28 * 5


def test_probability_grid_rows():
    code, text = _run(["probability", "--radius", "0.1", "--kind", "exciton",
                       "--grid", "11", "--no-cache"])
    assert code == 0
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "theta,P"
    assert len(lines) == 12

"""Command-line interface: dispatch, config files, CSV/JSON output, cache.

Handlers import the numerics they use and run only on a cache miss.
"""
import argparse
import json
import math
import os
import sys

from . import OUTER_ORDER, __version__
from .cache import ResultCache, config_key


def _pyify(obj):
    """Recursively convert numpy scalars/arrays (`tolist`) to plain Python."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj.tolist() if hasattr(obj, "tolist") else obj


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def emit(metadata, rows, fmt, stream):
    if fmt == "json":
        json.dump({"metadata": metadata, "rows": rows}, stream, indent=2,
                  default=_fmt)
        stream.write("\n")
        return
    for key in sorted(metadata):
        stream.write(f"# {key}: {_fmt(metadata[key])}\n")
    if rows:
        cols = list(rows[0].keys())
        stream.write(",".join(cols) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def parse_chirality(text):
    from . import tightbinding as tb
    try:
        n, m = (int(p) for p in text.split(","))
        return tb.ChiralIndex(n, m)
    except Exception as exc:
        raise ValueError(f"bad chirality {text!r}: {exc}") from None


def _given(args, *options):
    """The `options` given, as keywords: the library defaults the rest."""
    return {o: getattr(args, o) for o in options
            if getattr(args, o, None) is not None}


def _tb_params(args):
    from . import tightbinding as tb
    return tb.TightBindingParams(**_given(args, "t", "s", "a"))


def _quad(args):
    from .quadrature import QuadratureSpec
    return QuadratureSpec(outer_order=args.outer_order)


def _context(args):
    """Resolve (r in a_B*, the species' sigma or 0, Ry* -> meV or None) from
    one of --chirality and --radius; --sigma, where taken, overrides sigma."""
    if (args.chirality is None) == (args.radius is None):
        raise ValueError("give exactly one of --chirality and --radius")
    if args.radius is not None:
        for opt in _given(args, "epsilon", "t", "s", "a"):
            raise ValueError(f"--{opt} applies to --chirality, not --radius")
        return args.radius, 0.0, None
    from . import analysis, units
    masses, u, _, r = analysis.species_units(
        parse_chirality(args.chirality),
        units.Environment(**_given(args, "epsilon")), _tb_params(args))
    return r, masses.sigma, lambda e: units.to_physical_energy(e, u) * 1e3


# --- subcommand handlers (return metadata, rows) ----------------------------
def cmd_masses(args):
    from . import tightbinding as tb
    ch = parse_chirality(args.chirality)
    p = _tb_params(args)
    masses = tb.effective_masses(ch, p)
    rows = [{"n": ch.n, "m": ch.m, "r_A": tb.radius(ch, p),
             "gap_eV": masses.gap, "m_e_m0": masses.m_e,
             "m_h_m0": masses.m_h, "mu_m0": masses.mu,
             "sigma": masses.sigma}]
    return {"fermi_velocity_m_s": tb.fermi_velocity(p)}, rows


def cmd_bands(args):
    import numpy as np
    from . import tightbinding as tb
    ch = parse_chirality(args.chirality)
    p = _tb_params(args)
    N, Tlen = tb.cutting_lines(ch, p)
    ks = np.linspace(-np.pi / Tlen, np.pi / Tlen, _count(args, "points"))
    rows = [{"subband": mu, "k_invA": k, "E_c_eV": c, "E_v_eV": v}
            for mu in range(N)
            for k, c, v in zip(ks, *tb.subband_energies(ch, mu, ks, p))]
    return {"subbands": N}, rows


def cmd_exciton(args):
    from . import solver
    r, _, mev = _context(args)
    e_x = -solver.exciton_ground(r, args.model, quad=_quad(args))
    row = {"r_aB": r, "model": args.model, "E_X_Ry": e_x}
    if mev:
        row["E_X_meV"] = mev(e_x)
    return {}, [row]


def cmd_trion(args):
    from . import solver
    r, sigma, mev = _context(args)
    sigma = sigma if args.sigma is None else args.sigma
    res = solver.binding_energy(r, sigma, args.charge, args.model,
                                quad=_quad(args))
    row = {"r_aB": r, "sigma": sigma, "model": args.model,
           "charge": args.charge, "E_X_Ry": res.E_X, "E_T_Ry": res.E_T,
           "E_B_Ry": res.E_B}
    if mev:
        row["E_B_meV"] = mev(res.E_B)
    return {}, [row]


def cmd_hf(args):
    from .hartree_fock import hf_binding_energy
    r, _, mev = _context(args)
    res, state = hf_binding_energy(r, args.model, quad=_quad(args))
    row = {"r_aB": r, "model": args.model, "E_X_Ry": res.E_X,
           "E_T_HF_Ry": res.E_T, "E_B_HF_Ry": res.E_B,
           "iterations": state.iterations, "converged": state.converged}
    if mev:
        row["E_B_HF_meV"] = mev(res.E_B)
    return {"exciton_reference": "exact variational"}, [row]


def cmd_optimize(args):
    from . import basis, optimizer
    initial = basis.preset_groups(args.problem + args.model)
    run = optimizer.optimize(args.problem, args.model, initial, r0=args.r0,
                             max_steps=args.max_steps, quad=_quad(args))
    rows = [{"step": i, "objective_Ry": e} for i, e in enumerate(run.history)]
    meta = {"converged": run.converged, "accepted": run.accepted,
            "rejected": run.rejected,
            "final_exponents": json.dumps(run.final)}
    return meta, rows


def cmd_probability(args):
    from . import analysis, solver
    points = _count(args, "grid")
    r, sigma, _ = _context(args)
    quad = _quad(args)
    if args.kind == "exciton":
        if args.sigma is not None:
            raise ValueError("--sigma applies to --kind trion only")
        spec, basis = solver.exciton_spectrum(r, args.model, quad=quad)
        grid = analysis.exciton_probability(spec, basis, points, r=r)
        rows = [{"theta": t, "P": v}
                for t, v in zip(grid.theta, grid.values)]
        return {"kind": "exciton"}, rows
    sigma = sigma if args.sigma is None else args.sigma
    spec, basis = solver.trion_spectrum(r, sigma, "-", args.model, quad=quad)
    grid = analysis.trion_probability(spec, basis, points, r=r)
    rows = [{"theta1": t1, "theta2": t2, "P": grid.values[i, j]}
            for i, t1 in enumerate(grid.theta)
            for j, t2 in enumerate(grid.theta)]
    return {"kind": "trion"}, rows


def _count(args, option):
    """The count --`option`, with a ValueError naming it if below 1."""
    value = getattr(args, option)
    if value < 1:
        raise ValueError(f"--{option} must be >= 1, got {value}")
    return value


def _grid(args, quantity):
    """np.linspace(--start, --stop, --points) of a sweep over `quantity`,
    with a ValueError naming the option if an end is not finite or
    --points is below 1."""
    import numpy as np
    for opt in ("start", "stop"):
        value = getattr(args, opt)
        if not math.isfinite(value):
            raise ValueError(f"{quantity} must be finite, got --{opt} {value}")
    return np.linspace(args.start, args.stop, _count(args, "points"))


def cmd_sweep_radius(args):
    from . import analysis
    grid = _grid(args, "radius r")
    return {}, analysis.sweep_radius(grid, sigmas=(args.sigma,),
                                     models=tuple(args.models.split(",")),
                                     methods=tuple(args.methods.split(",")),
                                     quad=_quad(args))


def cmd_sweep_sigma(args):
    from . import analysis
    return {}, analysis.sweep_sigma(args.radius, _grid(args, "sigma"),
                                    args.model, _quad(args))


def cmd_sweep_epsilon(args):
    from . import analysis
    ch = parse_chirality(args.chirality)
    grid = _grid(args, "dielectric constant epsilon")
    rows, eb_fit, ex_fit = analysis.sweep_epsilon(ch, grid, _tb_params(args),
                                                  _quad(args))
    meta = {"fit_A_eV": eb_fit.A, "fit_p": eb_fit.p, "fit_C_eV": eb_fit.C,
            "exciton_fit_p": ex_fit.p,
            "fit_units_note": "fit constants in eV"}
    return meta, rows


def cmd_sweep_species(args):
    from . import analysis, units
    rows = analysis.sweep_species(args.rmin, args.rmax,
                                  units.Environment(**_given(args, "epsilon")),
                                  _tb_params(args), quad=_quad(args))
    return {"species": len(rows)}, rows


# --- the subcommand table ---------------------------------------------------
# Options that several commands take, each declared once; a command names
# those its handler reads, with keywords (e.g. its default) that override.
SHARED = {
    "chirality": dict(help="n,m"),
    "epsilon": dict(type=float),
    "radius": dict(type=float, help="radius in a_B*"),
    "sigma": dict(type=float),
    "model": dict(choices=("1d", "2d"), default="2d"),
    "t": dict(type=float),
    "s": dict(type=float),
    "a": dict(type=float),
    "outer-order": dict(type=int, default=OUTER_ORDER),
    "start": dict(type=float),
    "stop": dict(type=float),
    "points": dict(type=int),
}
# How a result is read and written, not what it is: every command takes
# these, and none of them is part of the cache key.
IO_OPTIONS = {
    "config": dict(help="key = value config file"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "output": dict(help="output path (default stdout)"),
    "cache-dir": dict(help="cache directory (default $TRIONLAB_CACHE)"),
    "no-cache": dict(action="store_true"),
}

TIGHT_BINDING = {"t": {}, "s": {}, "a": {}}
SPECIES = {"chirality": {"required": True}, **TIGHT_BINDING}
POINT = {"chirality": {}, "epsilon": {}, "radius": {}, "model": {},
         "outer-order": {}, **TIGHT_BINDING}


def _sweep(start, stop, points):
    return {"start": {"default": start}, "stop": {"default": stop},
            "points": {"default": points}, "outer-order": {}}


COMMANDS = {   # name: (handler, help, the options the handler reads)
    "masses": (cmd_masses, "effective masses of one species", SPECIES),
    "bands": (cmd_bands, "folded subband structure",
              {**SPECIES, "points": {"default": 201}}),
    "exciton": (cmd_exciton, "exciton binding energy", POINT),
    "trion": (cmd_trion, "trion binding energy",
              {**POINT, "sigma": {},
               "charge": {"choices": ("-", "+"), "default": "-"}}),
    "hf": (cmd_hf, "mean-field trion binding energy", POINT),
    "optimize": (cmd_optimize, "optimize basis exponents", {
        "problem": {"choices": ("exciton", "trion", "hf"), "required": True},
        "model": {}, "r0": {"type": float, "default": 0.1},
        "max-steps": {"type": int, "default": 100}, "outer-order": {}}),
    "probability": (cmd_probability, "angular probability grid", {
        **POINT, "sigma": {}, "grid": {"type": int, "default": 201},
        "kind": {"choices": ("exciton", "trion"), "default": "trion"}}),
    "sweep-radius": (cmd_sweep_radius, "binding energies vs radius", {
        **_sweep(0.02, 0.3, 30), "sigma": {"default": 0.0},
        "models": {"default": "1d,2d"}, "methods": {"default": "full"}}),
    "sweep-sigma": (cmd_sweep_sigma, "binding energies vs mass fraction", {
        "radius": {"default": 0.1}, **_sweep(0.0, 1.0, 11), "model": {}}),
    "sweep-epsilon": (cmd_sweep_epsilon,
                      "binding energies vs dielectric constant",
                      {**SPECIES, **_sweep(2.0, 5.0, 13)}),
    "sweep-species": (cmd_sweep_species,
                      "all semiconducting species in a radius range",
                      {"rmin": {"type": float, "default": 3.0},
                       "rmax": {"type": float, "default": 15.0},
                       "epsilon": {}, "outer-order": {}, **TIGHT_BINDING}),
}
HANDLERS = {name: entry[0] for name, entry in COMMANDS.items()}


def build_parser(command=None):
    """The parser of every command; given a `command`, the others are
    registered by name and help alone, without their options."""
    parser = argparse.ArgumentParser(
        prog="trionlab",
        description="Exciton and trion binding energies of carbon nanotubes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        for opt, keywords in {**IO_OPTIONS, **options}.items():
            p.add_argument("--" + opt, **{**SHARED.get(opt, {}), **keywords})
    return parser, sub.choices


def config_argv(argv, args):
    """`argv` with the --config file's `key = value` lines as `--key=value`
    after the subcommand (later flags win); a switch takes true or false."""
    settings = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            settings[key.replace("-", "_")] = value
    unknown = sorted(set(settings) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ValueError(f"unknown config key(s) for {args.command}: "
                         + ", ".join(unknown))
    tokens = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):    # not a switch
            tokens.append(f"{flag}={value}")
        elif value not in ("true", "false"):
            raise ValueError(f"config switch {key} takes true or false")
        elif value == "true":
            tokens.append(flag)
    i = argv.index(args.command) + 1
    return argv[:i] + tokens + argv[i:]


def run(argv, stdout=None):
    stdout = stdout or sys.stdout
    # the command is the first positional: no top-level option takes a value
    parser = build_parser(next((a for a in argv if a[:1] != "-"), None))[0]
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(config_argv(argv, args))
    given = _given(args, "t", "s", "a", "epsilon")
    if given:   # a spelled-out library default keys the entry of omitting it
        from . import tightbinding as tb, units
        defaults = vars(tb.TightBindingParams()) | vars(units.Environment())
        for opt, value in given.items():
            if value == defaults[opt]:
                setattr(args, opt, None)
    if args.output and (os.path.isdir(args.output) or not os.path.isdir(
            os.path.dirname(args.output) or ".")):
        raise ValueError(f"--output {args.output}: not a file in an "
                         "existing directory")
    # the cache key holds what the numbers depend on, not how they are
    # written out (cache.config_key adds the package's source digest)
    config = {k: v for k, v in sorted(vars(args).items())
              if k.replace("_", "-") not in IO_OPTIONS}
    key = config_key(config)
    cache = ResultCache.from_environment(args.cache_dir, args.no_cache)
    payload = cache.get(key)
    if payload is None:
        metadata, rows = HANDLERS[args.command](args)
        payload = _pyify({"metadata": metadata, "rows": rows})
        cache.put(key, payload)
    metadata = dict(payload["metadata"])
    metadata["version"] = __version__
    metadata["config_hash"] = key
    metadata["units_note"] = "energies Ry* unless suffixed; lengths a_B*/A"
    if args.output:
        with open(args.output, "w") as fh:
            emit(metadata, payload["rows"], args.format, fh)
    else:
        emit(metadata, payload["rows"], args.format, stdout)
    return 0


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

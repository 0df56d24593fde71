"""Command-line interface.

Subcommands: solve, verify (soliton|convexity|barriers|cylinder), props,
barriers, picard, plot.  Exit codes: 0 all checks passed, 1 a verification
failed, 2 usage or input error.  A JSON config file can predefine any flag
(flags given on the command line override it).

``_COMMANDS`` is the command table: each name maps to its help text, a
function that adds its flags and its handler.  Top-level options
(``--config``, ``-h``) go before the command.  ``main`` parses a known
command in first place with that command's own parser; anything else (no
command, a top-level option, an unknown name, or arguments the command's
parser leaves over) goes to the full parser, which holds every command as a
subparser and prints the top-level usage.  Both are built per call, with the
terminal width queried once.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import io as pio
from . import picard as ppicard
from .errors import DomainError, ParameterError
from .profiles import BARRIER_FAMILIES, barrier, integrate_profile
from .rotgeom import profile_geometry
from .speeds import SpeedSpec, check_properties
from .svgfig import render_chart
from .verifier import (check_barriers, check_convexity_estimate, check_sigma2_cylinder,
                       check_soliton, fit_convexity_params)

_SPEED_KINDS = {"sigma-k": "sigma_k_root", "harmonic": "harmonic_pairs",
                "quotient": "quotient", "product": "product"}


def _parse(convert, text: str, flag: str):
    try:
        return convert(text)
    except ValueError:
        raise ParameterError(f"{flag}: expected {convert.__name__}, got {text!r}") from None


def _speed_from_flags(name: str, n: int, k=None, l=None, factors=None, weights=None) -> SpeedSpec:
    """The speed the flags name; ``SpeedSpec`` checks the parameters its kind
    needs and drops those it ignores.  Only a product reads --factors, a
    comma-separated list of ``kind[:k]``, and --weights (default equal)."""
    d = {"kind": _SPEED_KINDS[name], "n": n, "k": k, "l": l}
    if name == "product":
        d["factors"] = []
        for tok in (factors.split(",") if factors else []):
            kind, _, fk = tok.strip().partition(":")
            if kind not in _SPEED_KINDS:
                raise ParameterError(f"unknown product factor {tok!r}")
            d["factors"].append({"kind": _SPEED_KINDS[kind], "n": n,
                                 "k": _parse(int, fk, "--factors") if fk else None})
        d["weights"] = ([_parse(float, w, "--weights") for w in weights.split(",")] if weights
                        else [1.0 / len(d["factors"]) for _ in d["factors"]])
    return pio.speed_from_dict(d)


def _cmd_solve(args) -> int:
    ns = [args.n]
    if args.sweep:
        span = args.sweep.removeprefix("n=")
        if "=" in span:
            raise ParameterError(f"--sweep: expected n=LO..HI or LO..HI, got {args.sweep!r}")
        lo, _, hi = span.partition("..")
        ns = list(range(_parse(int, lo, "--sweep"), _parse(int, hi, "--sweep") + 1))
        if not ns:
            raise ParameterError(f"--sweep: expected a nonempty range, got {span!r}")
    profiles = [integrate_profile(            # every n before any file: a bad n writes none
        _speed_from_flags(args.speed, n, k=args.k), startup_radius=args.eps, r_max=args.rmax,
        rtol=args.rtol, atol=args.atol, blowup_threshold=args.blowup_threshold) for n in ns]
    out = Path(args.out)
    for profile in profiles:
        path = out if len(ns) == 1 else out.with_name(f"{out.stem}_n{profile.n}{out.suffix}")
        pio.write_profile_csv(path, profile)
        msg = f"{path}: status={profile.status}, {profile.samples.shape[0]} samples"
        if profile.blowup_radius is not None:
            msg += f", blow-up radius {profile.blowup_radius:.12g}"
        print(msg)
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tol < np.inf:    # every kind takes it; soliton and cylinder read it
        raise ParameterError(f"tol must be finite and >= 0, got {args.tol}")
    if args.which == "cylinder":
        if args.samples < 1:
            raise ParameterError(f"--samples must be >= 1, got {args.samples}")
        if not np.isfinite([args.zmin, args.zmax]).all():
            raise ParameterError(f"--zmin and --zmax must be finite, got {args.zmin}, {args.zmax}")
        z = np.linspace(args.zmin, args.zmax, args.samples)
        context = {"surface": "cylindrical-type", "a": 0.0}
        entries = [check_sigma2_cylinder(z, tol=args.tol)]
    else:
        if not args.profile:
            raise ParameterError(f"verify {args.which} requires --profile")
        profile = pio.read_profile_csv(args.profile)
        context = pio.profile_metadata(profile)
        if args.which == "soliton":
            entries = [check_soliton(profile, tol=args.tol)]
        elif args.which == "convexity":
            geo = profile_geometry(profile)       # one curvature table for the fit and the check
            if args.alpha == "auto" or args.beta == "auto":
                alpha_fit, beta_fit = fit_convexity_params(profile, geo, delta=args.delta)
            alpha = alpha_fit if args.alpha == "auto" else _parse(float, args.alpha, "--alpha")
            beta = beta_fit if args.beta == "auto" else _parse(float, args.beta, "--beta")
            entries = [check_convexity_estimate(profile, geo, alpha, args.delta, beta)]
        else:
            entries = check_barriers(profile)
    pio.write_json(args.out, {"profile": context, "checks": [asdict(e) for e in entries]})
    return 1 if any(e.status == "fail" for e in entries) else 0


def _cmd_props(args) -> int:
    speed = _speed_from_flags(args.speed, args.n, k=args.k, l=args.l,
                              factors=args.factors, weights=args.weights)
    checks = check_properties(speed, sample_count=args.samples, seed=args.seed)
    pio.write_json(args.out, {"speed": pio.speed_to_dict(speed), "samples": args.samples,
                              "seed": args.seed,
                              "checks": {name: asdict(c) for name, c in checks.items()}})
    failing = [name for name, c in checks.items() if c.failed > 0]
    if speed.kind == "quotient" and failing and set(failing) <= {"boundary_vanishing"}:
        print("warning: boundary-vanishing not satisfied (expected for quotient speeds)",
              file=sys.stderr)
        return 0
    return 0 if not failing else 1


def _cmd_barriers(args) -> int:
    if args.count < 1:
        raise ParameterError(f"--count must be >= 1, got {args.count}")
    if not np.isfinite(args.rmin):
        raise ParameterError(f"--rmin must be finite, got {args.rmin}")
    if np.isnan(args.rmax):         # inf is allowed where a barrier ends
        raise ParameterError("--rmax must not be nan")
    if args.rmin < 0.0:
        raise ParameterError(f"--rmin must be >= 0, got {args.rmin}")
    if args.rmin > args.rmax:
        raise ParameterError(f"--rmin must not exceed --rmax, got {args.rmin} > {args.rmax}")
    names = [t.strip() for t in args.names.split(",")]
    need_k = BARRIER_FAMILIES["sigma_k_root"]
    if args.k is None and set(names) & set(need_k):
        raise ParameterError(f"--k is required by barriers {', '.join(need_k)}, "
                             f"got --names {args.names}")
    bars = [barrier(name, args.n, k=args.k, a=args.a) for name in names]
    r_hi = min([args.rmax] + [b.r_end * (1.0 - 1e-9) for b in bars])
    if np.isinf(r_hi):
        raise ParameterError(f"--rmax must be finite where no barrier ends, got {args.rmax}")
    if args.rmin > r_hi:            # past the end of a barrier (--rmin <= --rmax holds)
        end = min(bars, key=lambda b: b.r_end)
        raise ParameterError(f"--rmin must lie below the end of {end.name}'s domain, "
                             f"{end.r_end:.12g}, got {args.rmin}")
    r = np.linspace(args.rmin, r_hi, args.count)
    with np.errstate(over="ignore"):
        columns = [b(r) for b in bars]
    for name, col in zip(names, columns):
        if not np.isfinite(col).all():
            raise ParameterError(f"barrier {name} overflows a float on [--rmin, --rmax], "
                                 f"got --rmax {args.rmax}")
    pio.write_table(args.out, ("r", *names), [r] + columns)
    return 0


def _cmd_picard(args) -> int:
    if not 3 <= args.n <= 6:
        raise ParameterError(f"--n must lie in 3..6, got {args.n}")
    if args.R is None:
        c_n, r2 = ppicard.lipschitz_radius(args.n, seed=args.seed)
        R = min(ppicard.domain_radius(args.n), r2)
    else:
        c_n, R = None, args.R
    result = ppicard.picard_solve(args.n, R, args.grid, tol=args.tol, max_iter=args.max_iter)
    fp_csv = args.fixed_point_csv or (Path(args.out).with_suffix(".csv") if args.out else None)
    fp_ref = None
    if fp_csv:
        fp_csv = Path(fp_csv)
        pio.write_table(fp_csv, ("r", "w"), (result.nodes, result.values))
        # referenced by name so the log does not depend on where it was written
        fp_ref = fp_csv.name if args.out and fp_csv.parent == Path(args.out).parent else str(fp_csv)
    payload = {
        "n": args.n, "R": R, "m": args.grid, "tol": args.tol,
        "lipschitz_coefficient": c_n,
        "iterations": result.iterations,
        "converged": result.converged,
        "fixed_point_csv_path": fp_ref,
    }
    pio.write_json(args.out, payload)
    if not result.converged:
        print(f"error: not converged after {len(result.iterations)} iterations, last "
              f"sup_change {result.iterations[-1]['sup_change']:.6g}", file=sys.stderr)
    return 0 if result.converged else 1


def _cmd_plot(args) -> int:
    if args.revolve and args.barriers:
        raise ParameterError("--barriers cannot be drawn with --revolve: barriers are slopes, "
                             "the silhouette plots u")
    profile = pio.read_profile_csv(args.infile)
    if args.revolve:
        r, u = profile.r, profile.u
        series = [("profile", np.concatenate([-r[::-1], r]), np.concatenate([u[::-1], u]))]
        title = "surface of revolution silhouette"
        x_label, y_label = "x", "u"
    else:
        series = [("du", profile.r, profile.du)]
        title = "profile slope and barriers"
        x_label, y_label = "r", "slope"
        if args.barriers:
            family = BARRIER_FAMILIES.get(profile.speed.kind, ())
            names = [t.strip() for t in args.barriers.split(",")]
            stray = [name for name in names if name not in family]
            if stray:
                raise ParameterError(f"--barriers {','.join(stray)}: the barriers of a "
                                     f"{profile.speed.kind} profile are {', '.join(family)}")
            for name in names:
                b = barrier(name, profile.n, k=profile.speed.k)
                mask = b.domain(profile.r)
                if not np.any(mask):
                    continue
                series.append((name, profile.r[mask], b(profile.r[mask])))
    pio._write(args.out, render_chart(series, title=title, x_label=x_label,
                                      y_label=y_label).encode())
    print(f"wrote {args.out}")
    return 0


def _solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--speed", choices=("sigma-k", "harmonic"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--rmax", type=float, default=3.0)
    p.add_argument("--eps", type=float, default=1e-4, help="startup radius")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-13)
    p.add_argument("--blowup-threshold", type=float, default=1e8)
    p.add_argument("--sweep", help="range of n, e.g. n=3..6")
    p.add_argument("--out", required=True)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("which", choices=("soliton", "convexity", "barriers", "cylinder"))
    p.add_argument("--profile", help="profile CSV (not needed for cylinder)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--alpha", default="auto")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--beta", default="auto")
    p.add_argument("--zmin", type=float, default=-0.5)
    p.add_argument("--zmax", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out")


def _props_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--speed", choices=_SPEED_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--factors", help="product factors, e.g. sigma-k:2,sigma-k:1")
    p.add_argument("--weights", help="product weights, e.g. 0.5,0.5")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")


def _barriers_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--names", required=True, help="comma-separated, e.g. w3,w5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--rmin", type=float, default=0.0)
    p.add_argument("--rmax", type=float, default=1.0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--out")


def _picard_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=float, help="default: min(band radius, contraction radius)")
    p.add_argument("--grid", type=int, default=2049)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-point-csv")
    p.add_argument("--out")


def _plot_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--barriers", help="overlay barriers, e.g. w3,w5")
    p.add_argument("--revolve", action="store_true",
                   help="silhouette of the surface of revolution")
    p.add_argument("--out", required=True)


# name: (help, function adding the command's flags, handler)
_COMMANDS = {
    "solve": ("integrate a profile and export CSV + metadata", _solve_flags, _cmd_solve),
    "verify": ("run verification checks, emit a JSON report", _verify_flags, _cmd_verify),
    "props": ("sampled speed property suite", _props_flags, _cmd_props),
    "barriers": ("tabulate barrier functions", _barriers_flags, _cmd_barriers),
    "picard": ("fixed point of the integral operator by Newton's method", _picard_flags,
               _cmd_picard),
    "plot": ("render an SVG chart from a profile CSV", _plot_flags, _cmd_plot),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``p`` with the flags and the handler of command ``name``."""
    _, add_flags, handler = _COMMANDS[name]
    add_flags(p)
    p.set_defaults(func=handler)
    return p


def _build_parser(formatter) -> argparse.ArgumentParser:
    """The full parser: every command in ``_COMMANDS`` as a subparser."""
    parser = argparse.ArgumentParser(
        prog="curvsol", formatter_class=formatter,
        description="Rotationally symmetric translating solitons of concave "
                    "curvature flows: profiles, barriers, fixed point, verification.")

    class ApplyConfig(argparse.Action):
        """``--config FILE``: the keys of the JSON object in FILE become the
        subcommands' flag defaults.  Top-level options are parsed before the
        subcommand, so its flags see them.  A number or a string becomes the
        text its flag would carry, and an on/off flag takes a bool; any other
        value, an unreadable or undecodable file or a key that names no flag is
        a ParameterError."""

        def __call__(self, parser, namespace, path, option_string):
            try:
                defaults = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ParameterError(f"cannot read config {path}: {exc}") from None
            if not isinstance(defaults, dict):
                raise ParameterError(f"config {path}: expected a JSON object")
            defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
            commands = sub.choices.values()
            on_off = {a.dest: a.nargs == 0 for p in commands for a in p._actions}
            unknown = sorted(set(defaults) - set(on_off))
            if unknown:
                raise ParameterError(f"config {path}: unknown keys {unknown}")
            for key, value in defaults.items():
                kind = "a bool" if on_off[key] else "a number or a string"
                if on_off[key] != isinstance(value, bool) or not isinstance(value, (int, float, str)):
                    raise ParameterError(f"config {path}: {key} must be {kind}, "
                                         f"got {json.dumps(value)}")
            for p in commands:
                p.set_defaults(**{k: v if on_off[k] else str(v) for k, v in defaults.items()})

    parser.add_argument("--config", action=ApplyConfig,
                        help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text, formatter_class=formatter), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse's own default width, queried once instead of in every add_argument
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if command:
            parser = argparse.ArgumentParser(prog=f"curvsol {command}", formatter_class=formatter)
            args, rest = _add_command(parser, command).parse_known_args(argv[1:])
        # the full parser reports leftover arguments under the top-level usage
        if not command or rest:
            args = _build_parser(formatter).parse_args(argv)
        for flag in ("out", "fixed_point_csv"):     # None is stdout; "" names no file
            if getattr(args, flag, None) == "":
                raise ParameterError(f"--{flag.replace('_', '-')} must not be empty")
        return args.func(args)
    except SystemExit as exc:         # argparse has printed its usage error or the help
        return exc.code
    except (ParameterError, DomainError, OSError) as exc:   # OSError: a path we cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

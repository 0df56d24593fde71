"""Command-line interface.

Subcommands: solve, verify (soliton|convexity|barriers|cylinder), props,
barriers, picard, plot.  Exit codes: 0 all checks passed, 1 a verification
failed, 2 usage or input error.  A JSON config file can predefine any flag
(flags given on the command line override it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from . import picard as ppicard
from .errors import ContractionFailureError, DomainError, ParameterError
from .profiles import barrier, integrate_profile
from .speeds import SpeedSpec, check_properties
from .svgfig import Series, render_chart
from .verifier import (VerificationReport, check_barriers, check_convexity_estimate,
                       check_sigma2_cylinder, check_soliton, fit_convexity_params)

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


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_text(path, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    ns = [args.n]
    if args.sweep:
        lo, _, hi = args.sweep.split("=", 1)[-1].partition("..")
        ns = list(range(_parse(int, lo, "--sweep"), _parse(int, hi, "--sweep") + 1))
    out = Path(args.out)
    for n in ns:
        speed = _speed_from_flags(args.speed, n, k=args.k)
        profile = integrate_profile(
            speed, startup_radius=args.eps, r_max=args.rmax, rtol=args.rtol,
            atol=args.atol, blowup_threshold=args.blowup_threshold)
        path = out if len(ns) == 1 else out.with_name(f"{out.stem}_n{n}{out.suffix}")
        pio.write_profile_csv(path, profile)
        msg = f"{path}: status={profile.status}, {profile.samples.shape[0]} samples"
        if profile.blowup_radius is not None:
            msg += f", blow-up radius {profile.blowup_radius:.12g}"
        print(msg)
    return 0


def _cmd_verify(args) -> int:
    report = VerificationReport()
    if args.which == "cylinder":
        z = np.linspace(args.zmin, args.zmax, args.samples)
        report.context = {"surface": "cylindrical-type", "a": 0.0}
        report.add(check_sigma2_cylinder(z, tol=args.tol))
    else:
        profile = pio.read_profile_csv(args.profile)
        report.context = pio.profile_metadata(profile)
        if args.which == "soliton":
            report.add(check_soliton(profile, tol=args.tol))
        elif args.which == "convexity":
            if args.alpha == "auto" or args.beta == "auto":
                alpha_fit, beta_fit = fit_convexity_params(profile, delta=args.delta)
            alpha = alpha_fit if args.alpha == "auto" else float(args.alpha)
            beta = beta_fit if args.beta == "auto" else float(args.beta)
            report.add(check_convexity_estimate(profile, alpha, args.delta, beta))
        else:
            for entry in check_barriers(profile):
                report.add(entry)
    _write_json(args.out, report.to_dict())
    return 0 if report.passed() else 1


def _cmd_props(args) -> int:
    speed = _speed_from_flags(args.speed, args.n, k=args.k, l=args.l,
                              factors=args.factors, weights=args.weights)
    rep = check_properties(speed, sample_count=args.samples, seed=args.seed)
    payload = {
        "speed": pio.speed_to_dict(speed),
        "samples": rep.samples,
        "seed": rep.seed,
        "checks": {name: {"passed": c.passed, "failed": c.failed, "worst": c.worst,
                          "witness": c.witness}
                   for name, c in rep.checks.items()},
    }
    _write_json(args.out, payload)
    failing = rep.failing_checks()
    if speed.kind == "quotient" and failing and set(failing) <= {"boundary_vanishing"}:
        print("warning: boundary-vanishing not satisfied (expected for quotient speeds)",
              file=sys.stderr)
        return 0
    return 0 if not failing else 1


def _cmd_barriers(args) -> int:
    names = [t.strip() for t in args.names.split(",")]
    bars = [barrier(name, args.n, k=args.k, a=args.a) for name in names]
    r_hi = min([args.rmax] + [b.r_end * (1.0 - 1e-9) for b in bars])
    r = np.linspace(args.rmin, r_hi, args.count)
    rows = [("r", *names)]
    for ri in r:
        rows.append((pio.fmt(ri), *(pio.fmt(b(ri)) for b in bars)))
    _write_text(args.out, "\n".join(",".join(row) for row in rows) + "\n")
    return 0


def _cmd_picard(args) -> int:
    if args.R is None:
        c_n, r2 = ppicard.lipschitz_radius(args.n, seed=args.seed)
        R = min(ppicard.domain_radius(args.n), r2)
    else:
        c_n, R = None, args.R
    try:
        result = ppicard.picard_solve(args.n, R, args.grid, tol=args.tol,
                                      max_iter=args.max_iter)
    except ContractionFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fp_csv = args.fixed_point_csv or (Path(args.out).with_suffix(".csv") if args.out else None)
    fp_ref = None
    if fp_csv:
        fp_csv = Path(fp_csv)
        lines = ["r,w"] + [f"{pio.fmt(r)},{pio.fmt(w)}"
                           for r, w in zip(result.grid.nodes, result.grid.values)]
        fp_csv.write_text("\n".join(lines) + "\n")
        # referenced by name so the log does not depend on where it was written
        fp_ref = fp_csv.name if args.out and fp_csv.parent == Path(args.out).parent else str(fp_csv)
    payload = {
        "n": args.n, "R": R, "m": args.grid, "tol": args.tol,
        "lipschitz_coefficient": c_n,
        "iterations": result.iterations,
        "converged": result.converged,
        "fixed_point_csv_path": fp_ref,
    }
    _write_json(args.out, payload)
    return 0 if result.converged else 1


def _cmd_plot(args) -> int:
    profile = pio.read_profile_csv(args.infile)
    series = []
    if args.revolve:
        r, u = profile.r, profile.u
        series.append(Series(label="profile",
                             x=np.concatenate([-r[::-1], r]),
                             y=np.concatenate([u[::-1], u])))
        title = "surface of revolution silhouette"
        x_label, y_label = "x", "u"
    else:
        series.append(Series(label="du", x=profile.r, y=profile.du))
        title = "profile slope and barriers"
        x_label, y_label = "r", "slope"
        if args.barriers:
            for name in args.barriers.split(","):
                b = barrier(name.strip(), profile.n, k=profile.speed.k)
                mask = (profile.r >= 0) & (profile.r < b.r_end)
                if not np.any(mask):
                    continue
                series.append(Series(label=name.strip(), x=profile.r[mask],
                                     y=b(profile.r[mask])))
    Path(args.out).write_text(render_chart(series, title=title,
                                           x_label=x_label, y_label=y_label))
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="curvsol",
        description="Rotationally symmetric translating solitons of concave "
                    "curvature flows: profiles, barriers, fixed point, verification.")
    parser.add_argument("--config", help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["solve"] = sub.add_parser("solve", help="integrate a profile and export CSV + metadata")
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
    p.set_defaults(func=_cmd_solve)

    p = commands["verify"] = sub.add_parser("verify", help="run verification checks, emit a JSON report")
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
    p.set_defaults(func=_cmd_verify)

    p = commands["props"] = sub.add_parser("props", help="sampled speed property suite")
    p.add_argument("--speed", choices=_SPEED_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--factors", help="product factors, e.g. sigma-k:2,sigma-k:1")
    p.add_argument("--weights", help="product weights, e.g. 0.5,0.5")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_props)

    p = commands["barriers"] = sub.add_parser("barriers", help="tabulate barrier functions")
    p.add_argument("--names", required=True, help="comma-separated, e.g. w3,w5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--rmin", type=float, default=0.0)
    p.add_argument("--rmax", type=float, default=1.0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_barriers)

    p = commands["picard"] = sub.add_parser("picard", help="fixed point of the integral operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=float, help="default: min(band radius, contraction radius)")
    p.add_argument("--grid", type=int, default=2049)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-point-csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_picard)

    p = commands["plot"] = sub.add_parser("plot", help="render an SVG chart from a profile CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--barriers", help="overlay barriers, e.g. w3,w5")
    p.add_argument("--revolve", action="store_true",
                   help="silhouette of the surface of revolution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)
    return parser, commands


def _apply_config(argv: list, commands: dict) -> None:
    """Make the keys of the ``--config`` JSON object the subcommands' flag
    defaults; a missing value, an unreadable file or a key that names no
    flag is a ParameterError."""
    i = argv.index("--config") + 1
    if i == len(argv):
        raise ParameterError("argument --config: expected a JSON file")
    try:
        defaults = json.loads(Path(argv[i]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {argv[i]}: {exc}") from None
    if not isinstance(defaults, dict):
        raise ParameterError(f"config {argv[i]}: expected a JSON object")
    defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
    unknown = sorted(set(defaults) - {a.dest for p in commands.values() for a in p._actions})
    if unknown:
        raise ParameterError(f"config {argv[i]}: unknown keys {unknown}")
    for p in commands.values():
        p.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        if "--config" in argv:
            _apply_config(argv, commands)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParameterError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

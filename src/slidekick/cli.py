"""Command-line front end: experiment harness and CSV emission.

Commands map one-to-one onto the library's experiment surfaces:

    slidekick simulate  --model normal-fold --profile poly(2) --eps 1e-3 ...
    slidekick poincare  --model normal-fold --profile linear --eps 1e-3 --y0 0.25 --probe -0.8
    slidekick exponent  --model normal-fold --profile poly(2) --eps-list 1e-6,3e-6,1e-5 ...
    slidekick inner     --p 2 --phi-p -3 --u-start -30
    slidekick manifold  --model normal-fold --profile poly(2) --eps 1e-4 --from-x -1
    slidekick bifurcate --family grazing-attracting --eps 1e-3 --mu -0.01:0.01:41
    slidekick friction  --model coulomb --eps 1e-3
    slidekick accept
    slidekick models list

Configuration can also come from a UTF-8 ``key = value`` file passed with
--config; explicit flags win.  All CSV output is comma-separated with a
header row, '.' decimals, LF line endings and 17 significant digits.
Everything is deterministic: identical configs give bit-identical files.

Exit codes: 0 success, 1 numerical failure, 2 configuration error (a flag
or config value that does not parse or is not finite, or an argument the
library rejects before solving).  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from slidekick.errors import ConfigError, NumericalFailure


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header: str, rows) -> None:
    text = "".join(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows)
    if path is None:
        sys.stdout.write(header + "\n" + text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write(header + "\n" + text)
    except OSError as exc:  # an unwritable --out, like an unreadable --config
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_trajectory(path, traj) -> None:
    # each event, in order, labels the first unlabelled step at its time or
    # else gets a row of its own after the steps at that time: events can
    # share a time (slide end and fold exit) and steps too (an arc's last
    # state and the next arc's first)
    key = lambda t: round(float(t), 15)
    rows = [[t, x, y, ""] for t, x, y in zip(traj.t, traj.x, traj.y)]
    for e in traj.events:
        row = next((r for r in rows if not r[3] and key(r[0]) == key(e.t)), None)
        if row is None:
            rows.append([e.t, *e.location, e.kind])
        else:
            row[3] = e.kind
    _write_csv(path, "t,x,y,event", sorted(rows, key=lambda row: key(row[0])))


def _finite(text: str) -> float:
    # the converter of every float flag and list entry: NaN and inf would
    # hang a shot or come out as NaN rows, so they do not parse
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _floats(text: str) -> list[float]:
    values = [_finite(s) for s in text.split(",") if s.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {text!r}")
    return values


def _point(text: str) -> tuple[float, float]:
    x, y = _floats(text)
    return x, y


def _mu_grid(text: str) -> np.ndarray:
    # a:b:n grid or a comma list
    if ":" in text:
        a, b, n = text.split(":")
        if int(n) < 1:
            raise argparse.ArgumentTypeError(f"an a:b:n grid needs n >= 1, got {text!r}")
        return np.linspace(_finite(a), _finite(b), int(n))
    return np.asarray(_floats(text))


def _config_defaults(ap: argparse.ArgumentParser, argv) -> None:
    """Make the values of the --config file the running subcommand's defaults.

    The file holds UTF-8 ``key = value`` lines, ``#`` starting a comment; its
    keys are the options of the subcommands that take --config.  This runs
    before parsing, so a config value also fills a required flag, argparse
    converts and checks it as it does the flag, and a flag given on the
    command line still wins.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    given = pre.parse_known_args(argv)[0]
    if not given.config:
        return
    try:
        with open(given.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {given.config}: {exc}") from exc
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    keys = {a.dest for p in sub.choices.values() if "--config" in p._option_string_actions
            for a in p._actions} - {"help", "config"}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{given.config}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{given.config}:{lineno}: unknown key {key!r}")
        values[key] = val
    for action in sub.choices[given.command]._actions if given.command in sub.choices else ():
        if action.dest in values:
            if action.choices is not None and values[action.dest] not in action.choices:
                raise ConfigError(f"{given.config}: {action.dest} must be one of {action.choices}")
            action.default, action.required = values[action.dest], False


def cmd_simulate(args) -> int:
    from slidekick.fields import filippov_flow
    from slidekick.integrator import STIFF, Section, integrate
    from slidekick.models import model
    from slidekick.regularization import RegularizedSystem, parse_profile, regularized_field

    if not args.t_max > 0.0:
        raise ConfigError(f"--t-max must be positive, got {args.t_max}")
    desc = model(args.model)
    until = Section(args.until_y, "all", id="target") if args.until_y is not None else args.t_max
    if args.eps is None:
        traj = filippov_flow(desc.system, args.start, until, t_max=args.t_max)
    else:
        R = RegularizedSystem(desc.system, parse_profile(args.profile), args.eps)
        traj = integrate(regularized_field(R), args.start, until, strip=R.epsilon, strip_center=R.offset,
                         t_max=args.t_max, **STIFF)
    _write_trajectory(args.out, traj)
    return 0


def cmd_poincare(args) -> int:
    from slidekick.models import model
    from slidekick.poincare import map_P_epsilon
    from slidekick.regularization import RegularizedSystem, parse_profile

    desc = model(args.model)
    fold = desc.fold().x
    profile = parse_profile(args.profile)
    rows = []
    for eps in args.eps:
        R = RegularizedSystem(desc.system, profile, eps)
        for x in args.probe:
            r = map_P_epsilon(R, args.y0, x, fold=fold)
            rows.append((eps, x, r.x, r.time))
    _write_csv(args.out, "eps,x_in,x_out,transit_time", rows)
    return 0


def cmd_exponent(args) -> int:
    from slidekick.models import model
    from slidekick.poincare import fit_tangency_constants, landing_scan, normal_form_constants
    from slidekick.regularization import parse_profile

    desc = model(args.model)
    profile = parse_profile(args.profile)
    if desc.id == "normal-fold":
        constants = normal_form_constants(args.y0)[0]
    else:
        constants = fit_tangency_constants(desc.system.x_plus, desc.fold().x, args.y0)
    scan = landing_scan(desc.system, profile, args.eps_list, args.y0, args.probe, constants=constants)
    _write_csv(args.out, "eps,exit_x,deviation",
               list(zip(scan.epsilons, scan.exits, scan.deviations)))
    p = profile.p
    print(f"exit_slope={scan.exit_fit.slope:.6f} expected={p / (2 * p - 1):.6f} "
          f"r2={scan.exit_fit.r_squared:.6f}")
    print(f"deviation_slope={scan.deviation_fit.slope:.6f} expected={2 * p / (2 * p - 1):.6f} "
          f"r2={scan.deviation_fit.r_squared:.6f}")
    return 0


def cmd_inner(args) -> int:
    from slidekick.inner import distinguished_solution
    from slidekick.regularization import check_p

    check_p(args.p, "the inner equation")  # before p! is taken
    sol = distinguished_solution(args.p, args.phi_p / math.factorial(args.p), args.u_start)
    _write_csv(args.out, "u,eta", list(zip(sol.u, sol.eta)))
    print(f"eta0_at_0={sol.eta_at_0:.12g} err={sol.estimated_error:.3g}")
    return 0


def cmd_manifold(args) -> int:
    from slidekick.models import model
    from slidekick.regularization import RegularizedSystem, parse_profile
    from slidekick.slow_manifold import sandwich_margins, trace_manifold

    desc = model(args.model)
    R = RegularizedSystem(desc.system, parse_profile(args.profile), args.eps)
    tr = trace_manifold(R, args.from_x, args.to_v)
    _mask, lower, upper = sandwich_margins(R, tr, "graph_over_x_p")
    _write_csv(args.out, "x,v,margin_lower,margin_upper",
               list(zip(tr.x, tr.v, lower, upper)))
    if tr.exit_x is not None:
        print(f"exit_x={tr.exit_x:.12g}")
    return 0


def cmd_bifurcate(args) -> int:
    from slidekick.bifurcation import grazing_sliding_scan, homoclinic_scan
    from slidekick.models import model
    from slidekick.regularization import parse_profile

    profile = parse_profile(args.profile)
    eps = args.eps
    rows = []
    if args.family in ("grazing-attracting", "grazing-repelling"):
        variant = args.family.split("-")[1]
        desc = model("grazing-family", variant=variant)
        diag = grazing_sliding_scan(desc, profile, eps, args.mu)
        for pt in diag.points:
            if pt.fixed_points:
                for fp in pt.fixed_points:
                    rows.append((pt.mu, fp.x, fp.stability, pt.gamma, pt.delta))
            else:
                rows.append((pt.mu, float("nan"), "absent", pt.gamma, pt.delta))
        if diag.collision_mu is not None:
            print(f"collision_mu={diag.collision_mu:.6g}")
    else:
        nu = 0.0 if args.family.endswith("hamiltonian") else args.nu

        def make(mu_raw):
            return model("saddle-homoclinic", mu=mu_raw, nu=nu, check=False)

        scan = homoclinic_scan(make, profile, eps, args.mu, y0=args.y0)
        for p in scan.probes:
            rows.append((p.mu, p.fixed_point if p.fixed_point is not None else float("nan"),
                         "attracting" if p.exists else "absent", float("nan"), float("nan")))
        if scan.mu_tilde_star is not None:
            print(f"mu_tilde_star={scan.mu_tilde_star:.6g} alpha_plus={scan.alpha_plus:.6g}")
    _write_csv(args.out, "mu,fixed_point,stability,gamma,delta", rows)
    return 0


def cmd_friction(args) -> int:
    from slidekick.bifurcation import centre_semistability, stribeck_attractor
    from slidekick.models import model
    from slidekick.regularization import parse_profile

    desc = model(args.model)
    profile = parse_profile(args.profile)
    eps = args.eps
    if args.model == "coulomb":
        rep = centre_semistability(desc, profile, eps, y0=args.y0)
        print(f"tangent_x={rep.x_tangent:.12g}")
        print(f"tangent_residual={rep.tangent_residual:.3g}")
        print(f"exterior_monotone={rep.exterior_monotone}")
        print(f"exterior_final_gaps={[float(f'{g:.3g}') for g in rep.exterior_final_gaps]}")
        print(f"interior_residuals={[float(f'{g:.3g}') for g in rep.interior_residuals]}")
    else:
        res = stribeck_attractor(desc, profile, eps, y0=args.y0)
        print(f"fixed_point={res.fixed_point:.12g} stability={res.stability} "
              f"n_fixed_points={res.n_fixed_points}")
        print(f"hausdorff_upper={res.hausdorff_upper:.6g} bound={5 * eps:.6g}")
    return 0


def cmd_accept(args) -> int:
    from slidekick.acceptance import format_table, run_all

    results = run_all([s.strip() for s in (args.only or "").split(",") if s.strip()] or None)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_models(args) -> int:
    from slidekick.models import list_models, model

    for mid in list_models():
        desc = model(mid, check=False)
        facts = {k: v for k, v in desc.facts.items() if isinstance(v, (int, float, str, bool, tuple))}
        print(f"{mid}: params={desc.params} facts={facts}")
        if desc.notes:
            print(f"    {desc.notes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slidekick", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; flags win")
        p.add_argument("--out", help="CSV output path (default: stdout)")

    p = sub.add_parser("simulate", help="integrate an orbit and export t,x,y,event")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--profile", default="linear")
    p.add_argument("--eps", type=_finite, help="regularize with this eps; omit for the Filippov flow")
    p.add_argument("--start", required=True, type=_point, help="x,y")
    p.add_argument("--until-y", dest="until_y", type=_finite)
    p.add_argument("--t-max", dest="t_max", type=_finite, default=50.0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("poincare", help="apply the fold map P_eps to probe points")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--profile", default="linear")
    p.add_argument("--eps", required=True, type=_floats, help="comma list")
    p.add_argument("--y0", type=_finite, default=0.25)
    p.add_argument("--probe", required=True, type=_floats, help="comma list of section abscissae")
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("exponent", help="fit the eps-scaling of exits and landings")
    common(p)
    p.add_argument("--model", default="normal-fold")
    p.add_argument("--profile", required=True)
    p.add_argument("--eps-list", dest="eps_list", required=True, type=_floats)
    p.add_argument("--y0", type=_finite, default=0.25)
    p.add_argument("--probe", type=_finite, default=-0.8)
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("inner", help="distinguished solution of the inner equation")
    common(p)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--phi-p", dest="phi_p", required=True, type=_finite, help="phi^(p)(1), e.g. -3")
    p.add_argument("--u-start", dest="u_start", type=_finite)
    p.set_defaults(fn=cmd_inner)

    p = sub.add_parser("manifold", help="trace the attracting Fenichel manifold")
    common(p)
    p.add_argument("--model", default="normal-fold")
    p.add_argument("--profile", required=True)
    p.add_argument("--eps", required=True, type=_finite)
    p.add_argument("--from-x", dest="from_x", type=_finite, default=-1.0)
    p.add_argument("--to-v", dest="to_v", type=_finite, default=1.0)
    p.set_defaults(fn=cmd_manifold)

    p = sub.add_parser("bifurcate", help="parameter scans of the return map")
    common(p)
    p.add_argument("--family", required=True,
                   choices=["grazing-attracting", "grazing-repelling",
                            "homoclinic", "homoclinic-hamiltonian"])
    p.add_argument("--profile", default="linear")
    p.add_argument("--eps", required=True, type=_finite)
    p.add_argument("--mu", required=True, type=_mu_grid,
                   help="a:b:n grid or comma list (mu~ for homoclinic)")
    p.add_argument("--y0", type=_finite, default=0.25)
    p.add_argument("--nu", type=_finite, default=0.15)
    p.set_defaults(fn=cmd_bifurcate)

    p = sub.add_parser("friction", help="dry-friction experiments (coulomb, stribeck)")
    p.add_argument("--config", help="key = value config file; flags win")  # prints, writes no CSV
    p.add_argument("--model", required=True, choices=["coulomb", "stribeck"])
    p.add_argument("--profile", default="poly(2)")
    p.add_argument("--eps", required=True, type=_finite)
    p.add_argument("--y0", type=_finite, default=0.25)
    p.set_defaults(fn=cmd_friction)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", help="comma list like 1,2,7a")
    p.set_defaults(fn=cmd_accept)

    p = sub.add_parser("models", help="model zoo")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=cmd_models)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        _config_defaults(ap, argv)
        args = ap.parse_args(argv)
        out = getattr(args, "out", None)
        if out is not None and not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK):
            raise ConfigError(f"cannot write {out}: its directory does not exist or is not writable")
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

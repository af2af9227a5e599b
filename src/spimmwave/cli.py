"""Command-line entry points: run spec files, reproduce canned experiments,
and evaluate the beam-superiority conditions for a gain profile."""

from __future__ import annotations

import argparse
import sys

from .conditions import geometric_mean_threshold, two_path_margin
from .errors import ParameterError, SpimmwaveError
from .experiments import (
    PRESET_IDS,
    load_spec,
    reproduce,
    run_experiment,
    write_csv,
)
from .numerics import require_in


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spimmwave",
        description="Spectral-efficiency experiments for path-index-modulated mmWave beams.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a JSON experiment spec")
    run_p.add_argument("spec_file", help="path to the spec file")
    run_p.add_argument("--seed", type=int, help="override the spec seed")
    run_p.add_argument("--trials", type=int, help="override the channel-draw count")
    run_p.add_argument("--mc-samples", type=int, help="override Monte-Carlo samples per point")

    rep_p = sub.add_parser("reproduce", help="run a canned experiment preset")
    rep_p.add_argument("preset", help="one of: " + ", ".join(PRESET_IDS))
    rep_p.add_argument("--out", required=True, help="output directory")
    rep_p.add_argument("--seed", type=int, default=None)
    rep_p.add_argument("--trials", type=int, default=None)
    rep_p.add_argument("--mc-samples", type=int, default=None)
    rep_p.add_argument("--asymptotic", action="store_true",
                       help="use the large-array effective channel for Monte-Carlo points")

    chk_p = sub.add_parser("check-conditions",
                           help="evaluate superiority conditions for a gain profile")
    chk_p.add_argument("--gains", required=True,
                       help="comma-separated path gains, strongest first, e.g. 0.6,0.4")
    chk_p.add_argument("--n0", type=float, required=True, help="noise power (linear)")
    chk_p.add_argument("--array-gain", type=float, default=64.0,
                       help="per-beam array gain (default 64)")
    return parser


def _cmd_run(args) -> int:
    spec = load_spec(args.spec_file, seed=args.seed, trials=args.trials,
                     mc_samples=args.mc_samples)
    rows = run_experiment(spec)
    if not spec.outputs.csv:
        write_csv(rows, "/dev/stdout")
    else:
        print(f"wrote {spec.outputs.csv} ({len(rows)} rows)")
    return 0


def _cmd_reproduce(args) -> int:
    rows = reproduce(args.preset, args.out, seed=args.seed, trials=args.trials,
                     mc_samples=args.mc_samples, asymptotic=args.asymptotic)
    print(f"wrote {args.out}/{args.preset}.csv ({len(rows)} rows) and plot_{args.preset}.py")
    return 0


def _flag_value(flag: str, text, open_low: bool = True) -> float:
    """The float in text, in (0, inf), or [0, inf) if not open_low; else a ParameterError."""
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"{flag}: {text.strip()!r} is not a number", field=flag) from None
    return require_in(flag, value, 0, open_low=open_low)


def _cmd_check_conditions(args) -> int:
    # every flag is checked before anything is printed
    gains = [_flag_value("--gains", tok) for tok in args.gains.split(",") if tok.strip()]
    if len(gains) < 2:
        raise ParameterError(f"--gains needs at least two gains, got {len(gains)}",
                             field="--gains")
    _flag_value("--array-gain", args.array_gain)
    _flag_value("--n0", args.n0, open_low=False)
    gains = sorted(gains, reverse=True)
    g = [args.array_gain] * len(gains)
    print(f"paths (strongest first): {gains}")
    if len(gains) == 2:
        margin = two_path_margin(gains[0], gains[1])
        verdict = "index modulation wins at high SNR" if margin > 0 else (
            "boundary" if margin == 0 else "no high-SNR guarantee")
        print(f"two-path margin 4*w2 - w1 = {margin:+.6g}  ({verdict})")
    at_noise = geometric_mean_threshold(gains, g, args.n0)
    print(f"at n0={args.n0:g}: tau={at_noise.tau:.6g} geometric mean={at_noise.geo_mean:.6g} "
          f"-> {'holds' if at_noise.holds else 'does not hold'}")
    noise_free = geometric_mean_threshold(gains, g, 0.0)
    print(f"noise-free limit: tau={noise_free.tau:.6g} geometric mean={noise_free.geo_mean:.6g} "
          f"-> {'holds' if noise_free.holds else 'does not hold'}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "reproduce": _cmd_reproduce,
        "check-conditions": _cmd_check_conditions,
    }
    try:
        return handlers[args.command](args)
    except (SpimmwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

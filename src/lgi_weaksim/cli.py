"""Command-line harness emitting stable CSV datasets.

Subcommands: sweep (exact estimators over theta), fig2 (paired +/- sign
sweeps), fig3 (correlator vs theta per strength plus the zero-strength
limit curve), gate (PPBS gate figures of merit), mc (seeded Monte Carlo
trials).

Each flag's text is converted once, when it is parsed, and checked by the
library's own check; a value outside its domain is a usage error that names
the flag, raised before anything is computed or written.

Every file starts with a '#'-commented manifest recording the version, the
subcommand and every flag except --quiet, with its resolved value (sweep's
ppbs visibility after its default, each fig2 file's own sign, gate and path,
and the K of gate's b_max column); re-running the same invocation
reproduces the file byte for byte. Data values are written with 9
significant digits, '.' decimal separator, ',' field separator and '\\n'
line endings. Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, experiment, optics
from .errors import _require_count, _require_real

MANIFEST_HEADER = "# lgi-weaksim manifest v1"

# K used by the gate subcommand's correlator ceiling column.
GATE_REFERENCE_K = 0.5445

_TWO_PI = 2.0 * math.pi

_SWEEP_COLUMNS = (
    "theta_rad", "k", "mb_sign",
    "p_dd", "p_da", "p_ad", "p_aa",
    "s1", "s2", "s1s2", "b", "wv", "postselect_prob",
)


def _format_real(value: float) -> str:
    return "%.9g" % value


def _manifest(args: argparse.Namespace, **resolved: object) -> list[str]:
    """The manifest: every parsed flag but --quiet, with ``resolved`` in place.

    A flag whose value is None (sweep's --visibility with the ideal gate) is
    left out.
    """
    params = {key: value for key, value in vars(args).items() if key not in ("command", "handler", "quiet")}
    params.update(resolved)
    lines = [MANIFEST_HEADER, f"# version={__version__}", f"# subcommand={args.command}"]
    for key in sorted(params):
        value = params[key]
        if value is None:
            continue
        if isinstance(value, float):
            text = repr(value)
        elif isinstance(value, list):  # --k-list's strengths
            text = ",".join(map(repr, value))
        else:
            text = str(value)
        lines.append(f"# {key}={text}")
    return lines


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".lgi-weaksim-{os.urandom(8).hex()}.tmp")
    try:
        # mode "x" never opens an existing file, and creates the new one with
        # the mode open(path, "w") would give it; os.replace keeps that mode
        stream = open(tmp_path, "x", encoding="utf-8", newline="\n")
        try:
            with stream:
                stream.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        # the temp file's random name means nothing to the user; name their path
        raise OSError(exc.errno, exc.strerror, path) from exc


def _emit_csv(
    path: str,
    manifest: list[str],
    header: tuple[str, ...] | list[str],
    rows: list[str],
    trailer: list[str] | None = None,
    quiet: bool = False,
) -> None:
    lines = list(manifest)
    lines.append(",".join(header))
    lines.extend(rows)
    if trailer:
        lines.extend(trailer)
    _write_atomic(path, "\n".join(lines) + "\n")
    if not quiet:
        print(f"wrote {path} ({len(rows)} rows)")


def _sweep_tables(
    k: float,
    mb_signs: tuple[int, ...],
    gate_model: experiment.GateModel,
    steps: int,
    degrees: bool,
) -> tuple[list[str], list[list[str]]]:
    """The sweep header and one list of rows per sign in ``mb_signs``.

    One engine call serves every sign. Only the mb_sign and b cells depend
    on the sign, so the first sign's rows are formatted whole and each
    further sign's rows are those rows with these two cells replaced.
    """
    header = list(_SWEEP_COLUMNS)
    if degrees:
        header[0] = "theta_deg"
    thetas = np.linspace(0.0, _TWO_PI, steps)
    probs = experiment._probability_matrix(thetas, k, gate_model)
    first, *others = mb_signs
    # the wv column is the S1 weak value; mb_sign affects b only
    est = experiment._estimates(*probs.T, k, first)
    values = np.column_stack([probs, est.s1, est.s2, est.s1s2, est.b, est.wv, est.psel])
    # one %-format per row; the fixed k and mb_sign cells are escaped into it
    k_text = _format_real(k)
    fixed = f"{k_text},{first}".replace("%", "%%")
    row_format = ",".join(["%.9g", fixed] + ["%.9g"] * values.shape[1])
    angles = (np.degrees(thetas) if degrees else thetas).tolist()
    rows = [row_format % (angle, *row) for angle, row in zip(angles, values.tolist())]
    tables = [rows]
    for mb_sign in others:
        # the theta cell holds no comma, so the first match is the k and mb_sign cells
        old, new = f",{k_text},{first},", f",{k_text},{mb_sign},"
        b = experiment._lg_terms(*probs.T, k, mb_sign)[3].tolist()
        signed = []
        for row, value in zip(rows, b):
            head, _, wv, psel = row.rsplit(",", 3)
            signed.append("%s,%.9g,%s,%s" % (head.replace(old, new, 1), value, wv, psel))
        tables.append(signed)
    return header, tables


def _flag_type(parse, check, *domain):
    """An argparse type: parse the flag's text, then apply a library check.

    ``check(value, *domain)`` is called on the parsed value; its ValueError
    becomes a usage error that keeps its message after the flag's name.
    """

    def flag_type(text: str):
        try:
            return check(parse(text), *domain)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


def _sign(text: str) -> int:
    if text not in ("+", "-"):
        raise ValueError(f"must be + or -, got {text!r}")
    return +1 if text == "+" else -1


def _strengths(text: str) -> list[float]:
    k_list = [experiment._require_strength(float(item)) for item in text.split(",") if item.strip()]
    if not k_list:
        raise ValueError("must name at least one strength")
    labels = [f"{k:g}" for k in k_list]
    repeated = [label for label in labels if labels.count(label) > 1]
    if repeated:
        raise ValueError(f"strengths share the column label b_k{repeated[0]}; "
                         "they must differ in 6 significant digits")
    return k_list


def _pairs(n_pairs: int) -> int:
    from . import stats  # only mc takes --pairs, and mc loads stats anyway

    return stats._require_pairs(n_pairs)


def _trials(n_trials: int) -> int:
    from . import stats  # only mc takes --trials, and mc loads stats anyway

    return _require_count(n_trials, "trials", 1, stats.MAX_TRIALS)


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        gate_model = experiment.GateModel(kind=args.gate, visibility=args.visibility)
    except ValueError as exc:  # --visibility with the ideal gate; parser is sweep's own
        parser.error(f"argument --visibility: {exc}")
    header, (rows,) = _sweep_tables(args.k, (args.mb_sign,), gate_model, args.theta_steps, args.degrees)
    _emit_csv(args.out, _manifest(args, visibility=gate_model.visibility), header, rows, quiet=args.quiet)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    signs = (+1, -1)
    header, tables = _sweep_tables(args.k, signs, experiment.IDEAL_GATE, args.theta_steps, args.degrees)
    for mb_sign, suffix, rows in zip(signs, "ab", tables):
        path = f"{args.out}_{suffix}.csv"
        _emit_csv(path, _manifest(args, mb_sign=mb_sign, gate="ideal", out=path), header, rows, quiet=args.quiet)
    return 0


def _interval_comment(label: str, interval: tuple[float, float] | None) -> str:
    if interval is None:
        return f"# violation_interval k={label} none"
    lo, hi = interval
    return (
        f"# violation_interval k={label} lo={_format_real(lo)} "
        f"hi={_format_real(hi)} width={_format_real(hi - lo)}"
    )


def _cmd_fig3(args: argparse.Namespace) -> int:
    k_list, mb_sign = args.k_list, args.mb_sign
    thetas = np.linspace(0.0, _TWO_PI, args.theta_steps)
    header = ["theta_deg" if args.degrees else "theta_rad"]
    columns = [np.degrees(thetas) if args.degrees else thetas]
    trailer = []
    for k in k_list:
        probs = experiment._probability_matrix(thetas, k, experiment.IDEAL_GATE)
        header.append(f"b_k{k:g}")
        columns.append(experiment._lg_terms(*probs.T, k, mb_sign)[3])
        trailer.append(_interval_comment(f"{k:g}", experiment.violation_interval(k, mb_sign=mb_sign)))
    # zero-strength limit is analytic; the 1/K calibration forbids simulating K=0
    header.append("b_k0")
    columns.append(mb_sign * np.cos(thetas) - np.sin(thetas))
    if mb_sign > 0:
        trailer.append(_interval_comment("0", (1.5 * math.pi, 2.0 * math.pi)))
    else:
        trailer.append(_interval_comment("0", (math.pi, 1.5 * math.pi)))

    row_format = ",".join(["%.9g"] * len(columns))
    rows = [row_format % row for row in zip(*(col.tolist() for col in columns))]
    _emit_csv(args.out, _manifest(args), header, rows, trailer, quiet=args.quiet)
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    success = optics.success_probability(args.visibility)
    fidelity = optics.process_fidelity_to_cz(args.visibility)
    _, b_star = experiment.b_max(
        GATE_REFERENCE_K, experiment.GateModel(kind="ppbs", visibility=args.visibility)
    )
    header = ("visibility", "success_probability", "process_fidelity", "b_max")
    rows = ["%.9g,%.9g,%.9g,%.9g" % (args.visibility, success, fidelity, b_star)]
    _emit_csv(args.out, _manifest(args, k=GATE_REFERENCE_K), header, rows, quiet=args.quiet)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    # imported here so that the commands that do not sample never load it
    from . import stats

    plan = stats.TrialPlan(n_pairs=args.pairs, n_trials=args.trials, master_seed=args.seed)
    config = experiment.ExperimentConfig(theta=args.theta, knowledge=args.k)
    summary = stats.run_trials(plan, config)

    header = ("trial", "b", "b_sigma", "b_significance", "wv", "wv_sigma")
    b_sig = stats._significances(summary.b, summary.b_sigma, bound=1.0)
    columns = (summary.b, summary.b_sigma, b_sig, summary.wv, summary.wv_sigma)
    row_format = "%d," + ",".join(["%.9g"] * len(columns))
    rows = [row_format % (index, *row) for index, row in enumerate(zip(*(c.tolist() for c in columns)))]
    trailer = [
        f"# summary true_b={_format_real(summary.true_b)}",
        f"# summary mean_b={_format_real(summary.mean_b)}",
        f"# summary mean_sigma={_format_real(summary.mean_sigma)}",
        f"# summary spread={_format_real(summary.spread)}",
        f"# summary coverage={_format_real(summary.coverage)}",
    ]
    _emit_csv(args.out, _manifest(args), header, rows, trailer, quiet=args.quiet)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's argument parser, built once per process.

    Parsing leaves the parser unchanged, so every call of ``main`` shares it.
    """
    parser = argparse.ArgumentParser(
        prog="lgi-weaksim",
        description="Simulate the variable-strength Leggett-Garg protocol and emit CSV datasets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_flag_type(int, _require_count, "seed"), default=0,
                        help="master seed for sampled data")
    common.add_argument("--quiet", action="store_true", help="suppress progress messages")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    strength = _flag_type(float, experiment._require_strength)
    steps = _flag_type(int, _require_count, "theta steps", 2, experiment.MAX_THETA_STEPS)
    sign = _flag_type(str, _sign)
    visibility = _flag_type(float, _require_real, "visibility", 0, 1)

    sweep = subparsers.add_parser(
        "sweep", parents=[common], help="exact estimator sweep over the preparation angle"
    )
    sweep.add_argument("--k", type=strength, default=0.5445, help="measurement strength K")
    sweep.add_argument("--theta-steps", type=steps, default=256, help="grid points on [0, 2pi]")
    sweep.add_argument("--mb-sign", type=sign, metavar="{+,-}", default="+", help="sign convention for Mb")
    sweep.add_argument("--gate", choices=("ideal", "ppbs"), default="ideal", help="gate model")
    sweep.add_argument("--visibility", type=visibility, default=None, help="PPBS photon visibility")
    sweep.add_argument("--degrees", action="store_true", help="report angles in degrees")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=functools.partial(_cmd_sweep, parser=sweep))

    fig2 = subparsers.add_parser(
        "fig2", parents=[common], help="paired sweeps for Mb = +S1 and Mb = -S1"
    )
    fig2.add_argument("--k", type=strength, default=0.5445, help="measurement strength K")
    fig2.add_argument("--theta-steps", type=steps, default=256, help="grid points on [0, 2pi]")
    fig2.add_argument("--degrees", action="store_true", help="report angles in degrees")
    # the manifest records each file's own path under out
    fig2.add_argument("--out-prefix", dest="out", metavar="OUT_PREFIX", required=True,
                      help="writes <prefix>_a.csv and <prefix>_b.csv")
    fig2.set_defaults(handler=_cmd_fig2)

    fig3 = subparsers.add_parser(
        "fig3", parents=[common], help="correlator vs angle per strength, with the K=0 limit curve"
    )
    fig3.add_argument("--k-list", type=_flag_type(str, _strengths), default="0.5445,0.1598",
                      help="comma-separated strengths")
    fig3.add_argument("--theta-steps", type=steps, default=256, help="grid points on [0, 2pi]")
    fig3.add_argument("--mb-sign", type=sign, metavar="{+,-}", default="+", help="sign convention for Mb")
    fig3.add_argument("--degrees", action="store_true", help="report angles in degrees")
    fig3.add_argument("--out", required=True, help="output CSV path")
    fig3.set_defaults(handler=_cmd_fig3)

    gate = subparsers.add_parser(
        "gate", parents=[common], help="PPBS gate figures of merit at a given visibility"
    )
    gate.add_argument("--visibility", type=visibility, default=1.0, help="photon visibility in [0, 1]")
    gate.add_argument("--out", required=True, help="output CSV path")
    gate.set_defaults(handler=_cmd_gate)

    mc = subparsers.add_parser(
        "mc", parents=[common], help="seeded Monte Carlo trials with propagated errors"
    )
    mc.add_argument("--k", type=strength, default=0.5445, help="measurement strength K")
    mc.add_argument("--theta", type=_flag_type(float, _require_real, "theta"), required=True,
                    help="preparation angle in radians")
    mc.add_argument("--pairs", type=_flag_type(int, _pairs), default=100_000, help="photon pairs per trial")
    mc.add_argument("--trials", type=_flag_type(int, _trials), default=300,
                    help="number of trials")
    mc.add_argument("--out", required=True, help="output CSV path")
    mc.set_defaults(handler=_cmd_mc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SystemExit:
        raise
    except Exception as exc:  # runtime failures exit 1, never into the CSV
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness emitting stable CSV datasets.

Subcommands: sweep (exact estimators over theta), fig2 (paired +/- sign
sweeps), fig3 (correlator vs theta per strength plus the zero-strength
limit curve), gate (PPBS gate figures of merit), mc (seeded Monte Carlo
trials).

Each flag's text is converted once, when it is parsed, and checked by the
library's own check; a value outside its domain is a usage error that names
the flag, raised before anything is computed or written.

numpy is imported only by the commands that build arrays (sweep, fig2,
fig3 and mc), when they run; gate, --help, --version and usage errors other
than mc's --pairs and --trials never load it, so a fresh process running
one of them starts in about half the time. No command loads dataclasses,
inspect or typing: the library's value classes are named tuples, so this
module and its parser load in about 6 ms with cached bytecode.

Every command writes through one streaming writer. Rows are made and
written 256 angles or trials at a time, so a sweep's memory does not grow
with its length, and they go to temp files that replace their targets only
after the last block, so a failure leaves every target as it was.

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
import itertools
import math
import os
import sys
from collections.abc import Iterable, Iterator

from . import __version__, experiment, optics
from .errors import _require_count, _require_real

MANIFEST_HEADER = "# lgi-weaksim manifest v1"

# K used by the gate subcommand's correlator ceiling column.
GATE_REFERENCE_K = 0.5445

_TWO_PI = 2.0 * math.pi

# rows are made and written this many angles or trials at a time, so that a
# command's memory does not grow with its row count (the engine's rows do
# not depend on how the angles are batched); with 512, the benchmark's
# 4096-angle sweeps peaked 0.5 MB higher
_BLOCK_ROWS = 256

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


def _write_atomic(paths: tuple[str, ...], pieces: Iterable[tuple[str, ...]]) -> None:
    """Write each of ``paths`` from ``pieces``, tuples holding one text per path, as they come.

    Each file goes to a temp file in its target's directory, and the temp
    files replace their targets only after the last piece. On any exception,
    one raised while the pieces are made included, every temp file is
    removed; an OSError names the path it was writing.
    """
    tmp_paths, streams = [], []
    try:
        try:
            for path in paths:
                tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                        f".lgi-weaksim-{os.urandom(8).hex()}.tmp")
                # mode "x" never opens an existing file, and creates the new one
                # with the mode open(path, "w") would give it; os.replace keeps that mode
                streams.append(open(tmp_path, "x", encoding="utf-8", newline="\n"))
                tmp_paths.append(tmp_path)
            for texts in pieces:
                for path, stream, text in zip(paths, streams, texts):
                    stream.write(text)
            for path, stream in zip(paths, streams):
                stream.close()
            for path, tmp_path in zip(paths, tmp_paths):
                os.replace(tmp_path, path)
        except BaseException:
            for stream in streams:
                try:
                    stream.close()
                except OSError:  # a failed last flush still closes the file, which is removed next
                    pass
            for tmp_path in tmp_paths:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
            raise
    except OSError as exc:
        # the temp file's random name means nothing to the user; name their path
        raise OSError(exc.errno, exc.strerror, path) from exc


def _emit_csv(
    paths: tuple[str, ...],
    manifests: tuple[list[str], ...],
    header: tuple[str, ...] | list[str],
    blocks: Iterable[tuple[str, ...]],
    n_rows: int,
    trailer: Iterable[str] = (),
    quiet: bool = False,
) -> None:
    """Write one CSV per path: its manifest, the header, its rows and the trailer.

    ``blocks`` yields tuples holding one text of whole rows per path, each
    row ending in a newline; each is written before the next is made.
    """
    head = ",".join(header) + "\n"
    heads = tuple("\n".join([*manifest, head]) for manifest in manifests)
    tail = "\n".join([*trailer, ""])
    _write_atomic(paths, itertools.chain((heads,), blocks, ((tail,) * len(paths),)))
    if not quiet:
        for path in paths:
            print(f"wrote {path} ({n_rows} rows)")


def _sweep_header(degrees: bool) -> list[str]:
    header = list(_SWEEP_COLUMNS)
    if degrees:
        header[0] = "theta_deg"
    return header


def _sweep_blocks(
    k: float,
    mb_signs: tuple[int, ...],
    gate_model: experiment.GateModel,
    steps: int,
    degrees: bool,
) -> Iterator[tuple[str, ...]]:
    """The sweep's rows, _BLOCK_ROWS angles at a time: per block, one text per sign in ``mb_signs``.

    One engine call per block serves every sign. Only the mb_sign and b
    cells depend on the sign, so the first sign's rows are formatted whole
    and each further sign's rows are those rows with these two cells
    replaced.
    """
    import numpy as np

    thetas = np.linspace(0.0, _TWO_PI, steps)
    first, *others = mb_signs
    # one %-format per row; the fixed k and mb_sign cells are escaped into it
    k_text = _format_real(k)
    fixed = f"{k_text},{first}".replace("%", "%%")
    row_format = ",".join(["%.9g", fixed] + ["%.9g"] * (len(_SWEEP_COLUMNS) - 3)) + "\n"
    # the theta cell holds no comma, so the first match is the k and mb_sign cells
    swaps = [(mb_sign, f",{k_text},{first},", f",{k_text},{mb_sign},") for mb_sign in others]
    for start in range(0, steps, _BLOCK_ROWS):
        block = thetas[start:start + _BLOCK_ROWS]
        probs = experiment._probability_matrix(block, k, gate_model)
        # the wv column is the S1 weak value; mb_sign affects b only
        est = experiment._estimates(*probs.T, k, first)
        values = np.column_stack([probs, est.s1, est.s2, est.s1s2, est.b, est.wv, est.psel])
        angles = (np.degrees(block) if degrees else block).tolist()
        rows = [row_format % (angle, *row) for angle, row in zip(angles, values.tolist())]
        texts = ["".join(rows)]
        for mb_sign, old, new in swaps:
            b = experiment._lg_terms(*probs.T, k, mb_sign)[3].tolist()
            signed = []
            for row, value in zip(rows, b):
                head, _, wv, psel = row.rsplit(",", 3)
                signed.append("%s,%.9g,%s,%s" % (head.replace(old, new, 1), value, wv, psel))
            texts.append("".join(signed))
        yield tuple(texts)


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
    blocks = _sweep_blocks(args.k, (args.mb_sign,), gate_model, args.theta_steps, args.degrees)
    _emit_csv((args.out,), (_manifest(args, visibility=gate_model.visibility),), _sweep_header(args.degrees),
              blocks, args.theta_steps, quiet=args.quiet)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    signs = (+1, -1)
    paths = tuple(f"{args.out}_{suffix}.csv" for suffix in "ab")
    manifests = tuple(_manifest(args, mb_sign=sign, gate="ideal", out=path) for sign, path in zip(signs, paths))
    blocks = _sweep_blocks(args.k, signs, experiment.IDEAL_GATE, args.theta_steps, args.degrees)
    _emit_csv(paths, manifests, _sweep_header(args.degrees), blocks, args.theta_steps, quiet=args.quiet)
    return 0


def _interval_comment(label: str, interval: tuple[float, float] | None) -> str:
    if interval is None:
        return f"# violation_interval k={label} none"
    lo, hi = interval
    return (
        f"# violation_interval k={label} lo={_format_real(lo)} "
        f"hi={_format_real(hi)} width={_format_real(hi - lo)}"
    )


def _fig3_blocks(k_list: list[float], mb_sign: int, steps: int, degrees: bool) -> Iterator[tuple[str]]:
    """fig3's rows, _BLOCK_ROWS angles at a time: the angle, B at each strength, then the K=0 limit."""
    import numpy as np

    thetas = np.linspace(0.0, _TWO_PI, steps)
    row_format = ",".join(["%.9g"] * (len(k_list) + 2)) + "\n"
    for start in range(0, steps, _BLOCK_ROWS):
        block = thetas[start:start + _BLOCK_ROWS]
        columns = [np.degrees(block) if degrees else block]
        for k in k_list:
            probs = experiment._probability_matrix(block, k, experiment.IDEAL_GATE)
            columns.append(experiment._lg_terms(*probs.T, k, mb_sign)[3])
        # zero-strength limit is analytic; the 1/K calibration forbids simulating K=0
        columns.append(mb_sign * np.cos(block) - np.sin(block))
        yield ("".join([row_format % row for row in zip(*(col.tolist() for col in columns))]),)


def _cmd_fig3(args: argparse.Namespace) -> int:
    k_list, mb_sign = args.k_list, args.mb_sign
    header = ["theta_deg" if args.degrees else "theta_rad", *(f"b_k{k:g}" for k in k_list), "b_k0"]
    trailer = [_interval_comment(f"{k:g}", experiment.violation_interval(k, mb_sign=mb_sign)) for k in k_list]
    if mb_sign > 0:
        trailer.append(_interval_comment("0", (1.5 * math.pi, 2.0 * math.pi)))
    else:
        trailer.append(_interval_comment("0", (math.pi, 1.5 * math.pi)))
    blocks = _fig3_blocks(k_list, mb_sign, args.theta_steps, args.degrees)
    _emit_csv((args.out,), (_manifest(args),), header, blocks, args.theta_steps, trailer, quiet=args.quiet)
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    success = optics.success_probability(args.visibility)
    fidelity = optics.process_fidelity_to_cz(args.visibility)
    _, b_star = experiment.b_max(
        GATE_REFERENCE_K, experiment.GateModel(kind="ppbs", visibility=args.visibility)
    )
    header = ("visibility", "success_probability", "process_fidelity", "b_max")
    row = "%.9g,%.9g,%.9g,%.9g\n" % (args.visibility, success, fidelity, b_star)
    _emit_csv((args.out,), (_manifest(args, k=GATE_REFERENCE_K),), header, [(row,)], 1, quiet=args.quiet)
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
    row_format = "%d," + ",".join(["%.9g"] * len(columns)) + "\n"

    def blocks() -> Iterator[tuple[str]]:
        # the ensemble's arrays are whole; only their rows' text is made a block at a time
        for start in range(0, plan.n_trials, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            rows = zip(range(start, stop), *(column[start:stop].tolist() for column in columns))
            yield ("".join(map(row_format.__mod__, rows)),)

    trailer = [
        f"# summary true_b={_format_real(summary.true_b)}",
        f"# summary mean_b={_format_real(summary.mean_b)}",
        f"# summary mean_sigma={_format_real(summary.mean_sigma)}",
        f"# summary spread={_format_real(summary.spread)}",
        f"# summary coverage={_format_real(summary.coverage)}",
    ]
    _emit_csv((args.out,), (_manifest(args),), header, blocks(), plan.n_trials, trailer, quiet=args.quiet)
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
    fig3.add_argument("--degrees", action="store_true",
                      help="report the theta column in degrees; violation_interval comments stay in radians")
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

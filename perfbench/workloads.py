"""Seeded operation lists, one per workload.

An operation is one call the benchmark's single client makes: a CLI
invocation (``cli.main(argv)``), a library call, or the dataset script's
``main``. The seed fixes every input; the number and kind of operations per
pass is the same for every seed, so seeds change the inputs and not the
amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# the CLI defaults the checks need when an argv leaves a flag out
CLI_DEFAULTS = {
    "--k": "0.5445",
    "--k-list": "0.5445,0.1598",
    "--theta-steps": "256",
    "--mb-sign": "+",
    "--gate": "ideal",
    "--visibility": None,
    "--pairs": "100000",
    "--trials": "300",
    "--seed": "0",
}

DENSE_STEPS = 4096                      # the scaled sweep size of the roadmap
GATE_INVOCATIONS = 24                   # more distinct visibilities than the 16-entry gate-map cache
FIG3_INVOCATIONS = 4
FITS = 6
EDGE_KNOWLEDGE = 1.0 - 1e-8             # violation arc narrower than one search-grid cell
BENCHMARK_STRENGTHS = (0.5445, 0.1598)
LARGE_MC = {"trials": 10_000, "pairs": 100_000}
SMALL_MC = {"trials": 300, "pairs": 100, "theta": 1.5 * math.pi, "k": 0.1598}


@dataclass
class Op:
    """One timed call. ``units`` are the invocations it stands for, each
    with the output files (name, check spec) that belong to it."""

    kind: str                       # "cli", "fit_visibility", "edge", "reproduce"
    args: list = field(default_factory=list)
    units: list = field(default_factory=list)


def cli_units(argv: list[str], out_dir: str) -> list:
    """Output files of one CLI invocation and the check spec for each."""
    command, flags, tokens = argv[0], {}, iter(argv[1:])
    for token in tokens:
        key, _, value = token.partition("=")
        flags[key] = value if value else next(tokens)

    def flag(name: str):
        return flags.get(name, CLI_DEFAULTS.get(name))

    def rel(path: str) -> str:
        return path[len(out_dir) + 1:] if path.startswith(out_dir + "/") else path

    steps = int(flag("--theta-steps"))
    if command == "sweep":
        vis = flag("--visibility")
        spec = {"type": "sweep", "k": float(flag("--k")), "mb_sign": 1 if flag("--mb-sign") == "+" else -1,
                "gate": flag("--gate"), "visibility": 1.0 if vis is None else float(vis), "steps": steps}
        return [[(rel(flags["--out"]), spec)]]
    if command == "fig2":
        prefix = rel(flags["--out-prefix"])
        base = {"type": "sweep", "k": float(flag("--k")), "gate": "ideal", "visibility": 1.0, "steps": steps}
        return [[(f"{prefix}_a.csv", {**base, "mb_sign": 1}), (f"{prefix}_b.csv", {**base, "mb_sign": -1})]]
    if command == "fig3":
        spec = {"type": "fig3", "k_list": [float(k) for k in flag("--k-list").split(",")],
                "mb_sign": 1 if flag("--mb-sign") == "+" else -1, "steps": steps}
        return [[(rel(flags["--out"]), spec)]]
    if command == "gate":
        return [[(rel(flags["--out"]), {"type": "gate", "visibility": float(flags["--visibility"])})]]
    if command == "mc":
        spec = {"type": "mc", "k": float(flag("--k")), "theta": float(flags["--theta"]),
                "pairs": int(flag("--pairs")), "trials": int(flag("--trials")), "seed": int(flag("--seed"))}
        return [[(rel(flags["--out"]), spec)]]
    raise ValueError(f"unknown subcommand {command!r}")


def cli_op(argv: list[str], out_dir: str) -> Op:
    return Op("cli", argv + ["--quiet"], cli_units(argv, out_dir))


def _log_strength(rng: random.Random) -> float:
    """A strength K drawn log-uniformly from the package's domain [1e-9, 1]."""
    return float("%.6g" % 10.0 ** rng.uniform(-9.0, 0.0))


def _sign(rng: random.Random) -> str:
    return rng.choice("+-")


def sweep_dense(rng: random.Random, out_dir: str, oracles, script) -> list[Op]:
    k_pair, k_ppbs = _log_strength(rng), _log_strength(rng)
    visibility = "%.4f" % rng.uniform(0.0, 1.0)
    return [
        cli_op(["fig2", "--k", repr(k_pair), "--theta-steps", str(DENSE_STEPS),
                "--out-prefix", f"{out_dir}/op00_fig2"], out_dir),
        cli_op(["sweep", "--k", repr(k_ppbs), "--theta-steps", str(DENSE_STEPS), "--gate", "ppbs",
                "--visibility", visibility, "--mb-sign=" + _sign(rng),
                "--out", f"{out_dir}/op01_sweep.csv"], out_dir),
    ]


def gate_scan(rng: random.Random, out_dir: str, oracles, script) -> list[Op]:
    ops = []
    for visibility in rng.sample(range(1_000_001), GATE_INVOCATIONS):
        index = len(ops)
        ops.append(cli_op(["gate", "--visibility", "%.6f" % (visibility / 1e6),
                           "--out", f"{out_dir}/op{index:02d}_gate.csv"], out_dir))
    for _ in range(FIG3_INVOCATIONS):
        index = len(ops)
        k_list = sorted({_log_strength(rng) for _ in range(3)})
        ops.append(cli_op(["fig3", "--k-list", ",".join(repr(k) for k in k_list), "--mb-sign=" + _sign(rng),
                           "--out", f"{out_dir}/op{index:02d}_fig3.csv"], out_dir))
    for _ in range(FITS):
        knowledge = rng.choice(BENCHMARK_STRENGTHS)
        xi = rng.uniform(0.05, 0.95)
        target = peak_of(lambda t: oracles.ppbs_b_closed(t, knowledge, xi))
        ops.append(Op("fit_visibility", [target, knowledge],
                      [[(None, {"type": "fit", "target": target, "k": knowledge})]]))
    ops.append(Op("edge", [EDGE_KNOWLEDGE], [[(None, {"type": "edge", "k": EDGE_KNOWLEDGE})]]))
    return ops


def mc_ensemble(rng: random.Random, out_dir: str, oracles, script) -> list[Op]:
    ops = []
    for knowledge in BENCHMARK_STRENGTHS:
        index = len(ops)
        theta = oracles.theta_at_ceiling(knowledge) + rng.uniform(-0.05, 0.05)
        ops.append(cli_op(["mc", "--k", repr(knowledge), "--theta", "%.9g" % theta,
                           "--trials", str(LARGE_MC["trials"]), "--pairs", str(LARGE_MC["pairs"]),
                           "--seed", str(rng.randrange(2**31)), "--out", f"{out_dir}/op{index:02d}_mc.csv"],
                          out_dir))
        for _ in range(4):
            # about half of these trials keep no pair after post-selection
            index = len(ops)
            ops.append(cli_op(["mc", "--k", repr(SMALL_MC["k"]), "--theta", repr(SMALL_MC["theta"]),
                               "--trials", str(SMALL_MC["trials"]), "--pairs", str(SMALL_MC["pairs"]),
                               "--seed", str(rng.randrange(2**31)),
                               "--out", f"{out_dir}/op{index:02d}_mc.csv"], out_dir))
    return ops


def reproduce(rng: random.Random, out_dir: str, oracles, script) -> list[Op]:
    """The dataset script at its fixed default sizes; the seed changes nothing."""
    import pathlib

    units = [cli_units(job, out_dir)[0] for job in script.jobs(pathlib.Path(out_dir))]
    return [Op("reproduce", ["--data-dir", out_dir, "--quiet"], units)]


WORKLOADS = {
    "sweep_dense": sweep_dense,
    "gate_scan": gate_scan,
    "mc_ensemble": mc_ensemble,
    "reproduce": reproduce,
}


def build(workload: str, seed: int, out_dir: str, oracles, script) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out_dir, oracles, script)


def peak_of(f, grid: int = 1440, xtol: float = 1e-12) -> float:
    """Maximum of a smooth 2pi-periodic function: grid, then golden section."""
    step = 2.0 * math.pi / grid
    best = max(range(grid), key=lambda i: f(i * step))
    lo, hi = (best - 1) * step, (best + 1) * step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return max(fc, fd)

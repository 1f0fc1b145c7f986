"""Seeded workload generator for the sirlyap benchmark.

A workload is a fixed list of `sirlyap` CLI commands (one "round") plus the
config files they read.  The seed only shapes the generated configs; the
program itself sees nothing but those files and its usual flags.

Usage (writes the configs of one workload and prints its command list):

    python3 perfbench/workloads.py --workload geometry --seed 7 --out DIR
"""
from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("trajectory", "certify", "geometry")

#: Per-size knobs.  "bench" is what BENCHMARK.json runs; "tiny" keeps the
#: self-tests short; "full" uses the checked-in horizon and certification
#: time scale, for comparing against the one-off timings in ROADMAP.md.
SIZES = {
    # simulate horizon (None: the config's own), certify time-scale factor,
    # level-set grid resolution, and the number of endemic / disease-free
    # parameter sets drawn for the geometry workload
    "tiny": {"t_end": 20.0, "certify_scale": 40, "resolution": 120, "geometry": (1, 1)},
    "bench": {"t_end": 150.0, "certify_scale": 8, "resolution": 800, "geometry": (2, 1)},
    "full": {"t_end": None, "certify_scale": 1, "resolution": 800, "geometry": (2, 1)},
}

BETA = 2e-4  # transmission rate of both reference scenarios; draws vary the rest


@dataclass
class Command:
    """One CLI invocation: `python -m sirlyap.cli <argv>` plus how to check it."""

    label: str   # e.g. "simulate_df" or "certify_endemic"
    argv: list   # arguments after `python -m sirlyap.cli`, without --out;
                 # argv[0], the subcommand, also names the gate check
    config: dict  # the parsed config, for the gate
    steps: int = 0  # RK4 steps the command performs (simulate only)


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def time_scaled(cfg: dict, c: float) -> dict:
    """The same scenario on a clock running c times faster.

    Multiplying every rate (beta, gamma, mu, the newborn rate and mu0) by c
    leaves the equilibria, R0, the regime and all dimensionless Lyapunov
    constants unchanged, and shortens certify's hard-wired 50/mu horizon
    c-fold at its fixed step size.
    """
    out = json.loads(json.dumps(cfg))
    for k in ("beta", "gamma", "mu", "b_hat"):
        out["model"][k] *= c
    out["signal"]["value"] *= c
    if "mu0" in out.get("lyap", {}):
        out["lyap"]["mu0"] *= c
    return out


def rk4_steps(t_end: float, dt: float) -> int:
    """Steps `ode.integrate` takes on one breakpoint-free segment [0, t_end]."""
    return max(1, int(math.ceil(t_end / dt - 1e-12)))


def _draw_endemic(rng: random.Random) -> dict:
    # R0 between 1.05x and 1.6x of the theorem threshold gamma/mu + 2
    gamma = rng.uniform(0.02, 0.045)
    mu = rng.uniform(0.01, 0.02)
    r0 = rng.uniform(1.05, 1.6) * (gamma / mu + 2.0)
    b_hat = r0 * mu * (gamma + mu) / BETA
    l_bar = 340.0
    return {
        "model": {"beta": BETA, "gamma": gamma, "mu": mu, "b_hat": b_hat},
        "equilibrium": "endemic",
        # constants omitted, so the CLI runs select_en_params
        "lyap": {"l_bar": l_bar, "delta": 0.5},
        "levels": [round(f * l_bar, 6) for f in (0.06, 0.3, 0.55, 0.8, 1.0)],
        "plane": {"axis": "x3t", "value": 0.0},
    }


def _draw_df(rng: random.Random) -> dict:
    gamma = rng.uniform(0.02, 0.045)
    mu = rng.uniform(0.01, 0.02)
    r0 = rng.uniform(0.3, 0.95)
    b_hat = r0 * mu * (gamma + mu) / BETA
    mu0 = rng.uniform(0.9, 0.99) * mu
    # the exact contour of level L runs from x1t = L through the kink at
    # x1t = -(beta*x1h/mu0)*L; with L <= mu0/beta the window below holds it
    # and stays inside the physical half-space x1t >= -x1h
    x1h = b_hat / mu
    top = mu0 / BETA
    return {
        "model": {"beta": BETA, "gamma": gamma, "mu": mu, "b_hat": b_hat},
        "equilibrium": "df",
        "lyap": {"mu0": mu0, "delta": 0.5},
        "levels": [round(f * top, 6) for f in (0.15, 0.35, 0.6, 0.85)],
        "window": [[-x1h, top], [0.0, top]],
        "plane": {"axis": "x3t", "value": 0.0},
    }


def build(workload: str, seed: int, out_dir: Path, repo: Path, size: str = "bench") -> list:
    """Write the workload's configs under out_dir and return its round of Commands."""
    knobs = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = []
    if workload == "trajectory":
        endemic = _load(repo / "configs" / "endemic.json")
        sinus = json.loads(json.dumps(endemic))
        mean = endemic["model"]["b_hat"]
        sinus["signal"] = {"kind": "sinusoid", "mean": mean,
                           "amplitude": rng.uniform(0.1, 0.6) * mean,
                           "angular_frequency": 2.0 * math.pi / rng.uniform(20.0, 200.0)}
        paths = [("df", str(repo / "configs" / "df.json"), _load(repo / "configs" / "df.json")),
                 ("endemic", str(repo / "configs" / "endemic.json"), endemic),
                 ("sinusoid", _write(out_dir / "sinusoid.json", sinus), sinus)]
        for name, path, cfg in paths:
            t_end = knobs["t_end"] if knobs["t_end"] is not None else cfg["horizon"]
            cfg = dict(cfg, horizon=t_end)
            cmds.append(Command(f"simulate_{name}",
                                ["simulate", "--config", path, "--t-end", repr(t_end)],
                                cfg, rk4_steps(t_end, cfg["dt"])))
    elif workload == "certify":
        c = knobs["certify_scale"]
        for name in ("df", "endemic"):
            cfg = time_scaled(_load(repo / "configs" / f"{name}.json"), c)
            path = _write(out_dir / f"certify_{name}_x{c}.json", cfg)
            cmds.append(Command(f"certify_{name}", ["certify", "--config", path],
                                dict(cfg, scale=c)))
    elif workload == "geometry":
        n_en, n_df = knobs["geometry"]
        drawn = [_draw_endemic(rng) for _ in range(n_en)] + [_draw_df(rng) for _ in range(n_df)]
        for j, cfg in enumerate(drawn):
            cfg["resolution"] = [knobs["resolution"], knobs["resolution"]]
            path = _write(out_dir / f"geometry_{j}_{cfg['equilibrium']}.json", cfg)
            cmds.append(Command("params", ["params", "--config", path], cfg))
            cmds.append(Command("levelsets", ["levelsets", "--config", path], cfg))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


def setup_command(repo: Path) -> Command:
    """The set-up probe: a fresh process that parses a config and does no numerics."""
    path = repo / "configs" / "df.json"
    return Command("setup", ["equilibria", "--config", str(path)], _load(path))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench")
    args = ap.parse_args(argv)
    for cmd in build(args.workload, args.seed, args.out, Path.cwd(), args.size):
        print(" ".join(["python", "-m", "sirlyap.cli"] + cmd.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

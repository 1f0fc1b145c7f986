"""Command-line entry point: equilibria | simulate | certify | levelsets | params.

All subcommands read one JSON config (see configs/ in the repo) plus a few
flag overrides; exit codes are 0 success, 1 config error, 2 regime error,
3 check failure.  `RunConfig.from_dict` reads every number of the config
with `model.decode_number` and turns the ValueError of a bad value into a
ConfigError.  Run as a program (`python -m sirlyap.cli`), each command
imports only the modules it runs, and numpy only where it evaluates arrays:
`certify`, and `levelsets` of the endemic function on an x2t plane.  The
other commands, `params` and the x3t-plane `levelsets` of either function
included, run without it.  Imported as a module, this one loads
every layer first, so a tool that wraps the layers' functions before it
calls `main` (perfbench/tracer.py) finds them all.
"""
from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import bands, flow, model
from .errors import ConfigError, RegimeError, SirLyapError
from .model import ModelParams, State, decode_number, decode_pairs

if __name__ != "__main__":
    from . import levelset, lyap_df, lyap_en, ode, verify  # noqa: F401

#: the Lyapunov constants a config may set, per equilibrium
_LYAP_KEYS = {
    "df": {"mu0", "eps", "delta"},
    "endemic": {"lambda_hat2", "k", "l_bar", "lambda3", "delta"},
}


def _integer(where: str, v, lo: int) -> int:
    if not (isinstance(v, int) and not isinstance(v, bool) and v >= lo):
        raise ConfigError(f"{where} must be an integer >= {lo}, got {v!r}")
    return v


def _window(v) -> list:
    w = decode_pairs("window", v)
    if not (len(w) == 2 and all(lo < hi for lo, hi in w)):
        raise ConfigError(f"window must be [[lo, hi], [lo, hi]] with lo < hi, got {v!r}")
    return w


def _plane(v) -> dict:
    if not (isinstance(v, dict) and set(v) == {"axis", "value"} and v["axis"] in ("x2t", "x3t")):
        raise ConfigError(f"plane must hold axis 'x2t' or 'x3t' and a value, got {v!r}")
    return {"axis": v["axis"], "value": decode_number("plane.value", v["value"])}


def _resolution(v) -> list:
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"resolution must be two integers >= 2, got {v!r}")
    return [_integer("resolution", n, 2) for n in v]


@dataclass
class RunConfig:
    model: ModelParams
    equilibrium: str = "df"
    lyap: dict = field(default_factory=dict)
    signal: flow.InputSignal = None
    x0: State = None
    horizon: float = 5000.0
    dt: float = 0.01
    levels: list = field(default_factory=list)
    window: list = None
    plane: dict = None
    resolution: list = field(default_factory=lambda: [800, 800])
    out_dir: str = "out"
    seed: int = bands.DEFAULT_SEED
    grid_n: int = bands.GRID_N
    n_samples: int = bands.N_SAMPLES

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Validate a config; an omitted key takes its field's default.  A
        value that a decoder refuses with a ValueError is a ConfigError."""
        try:
            return cls._decode(d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def _decode(cls, d: dict) -> "RunConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("model", "lyap", "signal"):
            if key in d and not isinstance(d[key], dict):
                raise ConfigError(f"'{key}' must be an object")
        p = ModelParams.from_dict(d.get("model", {}))  # a missing one lacks every key
        d = {**vars(cls(model=p)), **d}
        eq = d["equilibrium"]
        if eq not in ("df", "endemic"):  # not a dict lookup: eq may be unhashable
            raise ConfigError("equilibrium must be 'df' or 'endemic'")
        lyap = {k: decode_number(f"lyap.{k}", v) for k, v in d["lyap"].items()}
        bad = set(lyap) - _LYAP_KEYS[eq]
        if bad:
            raise ConfigError(f"unknown lyap keys for equilibrium {eq!r}: {sorted(bad)}")
        partial = {"lambda_hat2", "k", "lambda3"} & set(lyap)
        if partial and not {"l_bar", "lambda_hat2", "k"} <= set(lyap):
            raise ConfigError("lambda_hat2, k and lambda3 need the full l_bar, lambda_hat2, k triple")
        sig = flow.Constant(p.b_hat) if d["signal"] is None else flow.signal_from_dict(d["signal"])
        x0 = d["x0"]
        if x0 is not None:
            if not isinstance(x0, list) or len(x0) != 3:
                raise ConfigError(f"x0 must be a list of 3 numbers, got {x0!r}")
            x0 = State(*(decode_number("x0", v) for v in x0))
        horizon, dt = decode_number("horizon", d["horizon"]), decode_number("dt", d["dt"])
        if horizon < 0.0 or dt <= 0.0:
            raise ConfigError("need horizon >= 0 and dt > 0")
        levels, out_dir = d["levels"], d["out_dir"]
        if isinstance(levels, list):
            levels = [decode_number("levels", v) for v in levels]
        if not isinstance(levels, list) or any(v < 0.0 for v in levels):
            raise ConfigError(f"levels must be a list of numbers >= 0, got {levels!r}")
        if not isinstance(out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
        return cls(
            model=p, equilibrium=eq, lyap=lyap, signal=sig, x0=x0,
            horizon=horizon, dt=dt,
            levels=levels,
            window=None if d["window"] is None else _window(d["window"]),
            plane=None if d["plane"] is None else _plane(d["plane"]),
            resolution=_resolution(d["resolution"]),
            out_dir=out_dir,
            seed=_integer("seed", d["seed"], 0),
            grid_n=_integer("grid_n", d["grid_n"], 2),
            n_samples=_integer("n_samples", d["n_samples"], 1),
        )

    def to_dict(self) -> dict:
        """The config as `from_dict` reads it: each field that is not None,
        in field order, as JSON values copied from the config."""
        encode = {"model": ModelParams.as_dict, "signal": flow.signal_to_dict, "x0": _fields}
        return {f.name: encode.get(f.name, copy.deepcopy)(v) for f in fields(self)
                if (v := getattr(self, f.name)) is not None}


def _load_config(args) -> RunConfig:
    """Read the config file, apply the flag overrides, then validate."""
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    flags = {"out_dir": args.out, "seed": args.seed, "dt": args.dt, "horizon": args.t_end,
             "levels": None if args.levels is None else [float(v) for v in args.levels.split(",")],
             "equilibrium": args.equilibrium}
    raw.update({k: v for k, v in flags.items() if v is not None})
    return RunConfig.from_dict(raw)


def _artifact(cfg: RunConfig, name: str) -> Path:
    """The path of the artifact `name` in the output directory, which is
    made first; a directory that cannot be made is a ConfigError."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out_dir / name


def _build_lyap(cfg: RunConfig):
    p, ly = cfg.model, cfg.lyap
    if cfg.equilibrium == "df":
        from . import lyap_df
        lp = lyap_df.select_df_params(p, mu0=ly.get("mu0"), eps=ly.get("eps"),
                                      delta=ly.get("delta"))
        return lyap_df.DiseaseFreeLyapunov(p, lp)
    from . import lyap_en
    if "l_bar" in ly and "lambda_hat2" in ly and "k" in ly:
        lp = lyap_en.en_params_from(p, ly["l_bar"], ly["lambda_hat2"], ly["k"],
                                    lambda3=ly.get("lambda3"), delta=ly.get("delta"))
    else:
        lp = lyap_en.select_en_params(p, l_bar=ly.get("l_bar", 340.0), delta=ly.get("delta"))
    return lyap_en.EndemicLyapunov(p, lp)


def _fields(x: State) -> list:
    return [x.s, x.i, x.r]


def cmd_equilibria(cfg: RunConfig) -> int:
    p = cfg.model
    out = {
        "r0_hat": model.r0_hat(p),
        "gamma_over_mu_plus_2": p.gamma / p.mu + 2.0,
        "regime": model.classify_regime(p).value,
        "disease_free": _fields(model.disease_free_eq(p).point),
    }
    if model.r0_hat(p) > 1.0:
        out["endemic"] = _fields(model.endemic_eq(p).point)
    print(json.dumps(out, indent=2))
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    p = cfg.model
    path = _artifact(cfg, "trajectory.csv")
    x0 = cfg.x0 if cfg.x0 is not None else model.disease_free_eq(p).point
    n = flow.write_trajectory(path, flow.trajectory_rows(p, x0, cfg.signal, cfg.horizon, cfg.dt))
    print(f"wrote {path} ({n} rows)")
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    from . import verify
    path = _artifact(cfg, f"certify_{cfg.equilibrium}.json")
    rep = verify.run_certification(_build_lyap(cfg), seed=cfg.seed,
                                   grid_n=cfg.grid_n, n_samples=cfg.n_samples)
    rep.save_json(path)
    print(rep.format_table())
    return 0 if rep.passed else 3


def cmd_levelsets(cfg: RunConfig) -> int:
    from . import levelset
    path = _artifact(cfg, f"levelsets_{cfg.equilibrium}.csv")
    lyap = _build_lyap(cfg)
    plane = ("x3t", 0.0) if cfg.plane is None else (cfg.plane["axis"], cfg.plane["value"])
    window = None if cfg.window is None else tuple(map(tuple, cfg.window))
    contours = levelset.extract_contours(lyap, cfg.levels or lyap.default_levels(), plane=plane,
                                         window=window, resolution=tuple(cfg.resolution))
    levelset.write_contours_csv(path, contours)
    n_lines = sum(len(c.polylines) for c in contours)
    print(f"wrote {path} ({len(contours)} levels, {n_lines} polylines)")
    return 0


def cmd_params(cfg: RunConfig) -> int:
    path = _artifact(cfg, f"params_{cfg.equilibrium}.json")
    lyap = _build_lyap(cfg)
    out = {"equilibrium": cfg.equilibrium, "params": lyap.lp.as_dict(), **lyap.params_report()}
    with flow.text_file(path) as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out, indent=2))
    return 0


_COMMANDS = {"equilibria": cmd_equilibria, "simulate": cmd_simulate, "certify": cmd_certify,
             "levelsets": cmd_levelsets, "params": cmd_params}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sirlyap",
                                 description="SIR stability certification toolkit")
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--config", required=True, help="path to the JSON run config")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--dt", type=float, default=None)
    ap.add_argument("--t-end", type=float, default=None)
    ap.add_argument("--levels", default=None, help="comma-separated level list")
    ap.add_argument("--equilibrium", choices=["df", "endemic"], default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError, ValueError) as exc:  # ValueError: bad JSON or --levels
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as exc:  # OSError: an artifact that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 2
    except SirLyapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

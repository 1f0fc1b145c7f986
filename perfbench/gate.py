"""Output-correctness gate: every benchmark command's output is re-checked
with the library's own formulas before its time counts.

Each `check_*` function returns a list of problems; an empty list passes.
The benchmark imports sirlyap from the checkout's `src` to run these checks.
"""
from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from sirlyap import levelset, lyap_df, lyap_en, model, ode
from sirlyap.model import ModelParams, State

#: certify: worst margins may differ from the reference report by this much
#: (bit-identical at the seed commit; the slack admits reordered float ops)
MARGIN_RTOL = 1e-6
MARGIN_ATOL = 1e-9
#: simulate: S+I+R against the closed-form total population, relative to 1+N
POPULATION_RTOL = 1e-9
#: simulate: final state against the reference integration, relative to 1+|x|
FINAL_STATE_RTOL = 1e-7
#: levelsets: the README's vertex bound |V - level| <= 1e-3*(1 + level)
LEVEL_RTOL = 1e-3

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _params(cfg: dict) -> ModelParams:
    return ModelParams.from_dict(cfg["model"])


def check_equilibria(cfg: dict, out_dir: Path, stdout: str) -> list:
    out = json.loads(stdout)
    r0 = model.r0_hat(_params(cfg))
    return [] if out["r0_hat"] == r0 else [f"r0_hat {out['r0_hat']!r} != {r0!r}"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _reference_final_state(cfg_json: str) -> tuple:
    """Fixed-step RK4 in plain floats over the library's vector field.

    Follows the step grid `ode.integrate` documents for a signal without
    breakpoints: n = ceil(t_end/dt) equal steps landing exactly on t_end,
    the input sampled at t, t + h/2 and t + h.
    """
    cfg = json.loads(cfg_json)
    p = _params(cfg)
    sig = ode.signal_from_dict(cfg["signal"])
    t_end, dt = float(cfg["horizon"]), float(cfg["dt"])
    if sig.breakpoints(t_end):
        raise ValueError("reference integration supports breakpoint-free signals only")
    n = max(1, int(math.ceil(t_end / dt - 1e-12)))
    h = t_end / n
    s, i, r = map(float, cfg["x0"])
    f = model.rhs_arrays
    for j in range(n):
        t = j * h
        t_next = t_end if j == n - 1 else (j + 1) * h
        b0, bm, b1 = sig.value(t), sig.value(t + 0.5 * h), sig.value(t_next)
        k1 = f(p, s, i, r, b0)
        k2 = f(p, s + 0.5 * h * k1[0], i + 0.5 * h * k1[1], r + 0.5 * h * k1[2], bm)
        k3 = f(p, s + 0.5 * h * k2[0], i + 0.5 * h * k2[1], r + 0.5 * h * k2[2], bm)
        k4 = f(p, s + h * k3[0], i + h * k3[1], r + h * k3[2], b1)
        s, i, r = (max(0.0, x + (h / 6.0) * (a + 2.0 * (b + c) + d))
                   for x, a, b, c, d in zip((s, i, r), k1, k2, k3, k4))
    return n, (s, i, r)


def check_simulate(cfg: dict, out_dir: Path, stdout: str) -> list:
    path = out_dir / "trajectory.csv"
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "t,S,I,R,B":
        return [f"trajectory header {header!r}"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_steps, final = _reference_final_state(json.dumps(cfg, sort_keys=True))
    problems = []
    if rows.shape != (n_steps + 1, 5):
        return [f"trajectory has shape {rows.shape}, expected {(n_steps + 1, 5)}"]
    if not np.all(np.isfinite(rows)):
        problems.append("trajectory has non-finite values")
    t_end = float(cfg["horizon"])
    if rows[-1, 0] != t_end:
        problems.append(f"last row at t={rows[-1, 0]!r}, expected {t_end!r}")
    if cfg["signal"]["kind"] == "constant":
        p = _params(cfg)
        n_exact = model.total_population_exact(State(*cfg["x0"]), cfg["signal"]["value"],
                                               p, rows[:, 0])
        dev = np.abs(rows[:, 1:4].sum(axis=1) - n_exact) / (1.0 + n_exact)
        if dev.max() > POPULATION_RTOL:
            problems.append(f"S+I+R departs from the exact population by {dev.max():.3g}")
    err = np.abs(rows[-1, 1:4] - final) / (1.0 + np.abs(final))
    if err.max() > FINAL_STATE_RTOL:
        problems.append(f"final state {rows[-1, 1:4].tolist()} != reference {list(final)}")
    return problems


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _reference_report(cfg: dict) -> dict:
    name = f"certify_{cfg['equilibrium']}_x{cfg['scale']}.json"
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


def compare_reports(got: dict, ref: dict) -> list:
    if got.get("passed") is not True:
        return ["report says passed != true"]
    if len(got["checks"]) != len(ref["checks"]):
        return [f"{len(got['checks'])} checks, reference has {len(ref['checks'])}"]
    problems = []
    for g, r in zip(got["checks"], ref["checks"]):
        for key in ("name", "passed", "samples"):
            if g[key] != r[key]:
                problems.append(f"{r['name']}: {key} {g[key]!r} != {r[key]!r}")
        gm, rm = float(g["worst_margin"]), float(r["worst_margin"])
        if not abs(gm - rm) <= MARGIN_RTOL * max(abs(gm), abs(rm)) + MARGIN_ATOL:
            problems.append(f"{r['name']}: worst_margin {gm!r} != {rm!r}")
    return problems


def check_certify(cfg: dict, out_dir: Path, stdout: str) -> list:
    with open(out_dir / f"certify_{cfg['equilibrium']}.json") as fh:
        got = json.load(fh)
    return compare_reports(got, _reference_report(cfg))


# ---------------------------------------------------------------------------
# geometry: params and levelsets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _lyapunov(cfg_json: str):
    """The Lyapunov object the config selects, built by the library itself."""
    cfg = json.loads(cfg_json)
    p = _params(cfg)
    ly = cfg.get("lyap", {})
    if cfg["equilibrium"] == "df":
        lp = lyap_df.select_df_params(p, mu0=ly.get("mu0"), eps=ly.get("eps"),
                                      delta=ly.get("delta"))
        return lyap_df.DiseaseFreeLyapunov(p, lp)
    lp = lyap_en.select_en_params(p, l_bar=ly["l_bar"], delta=ly.get("delta", 0.5))
    return lyap_en.EndemicLyapunov(p, lp)


def check_params(cfg: dict, out_dir: Path, stdout: str) -> list:
    with open(out_dir / f"params_{cfg['equilibrium']}.json") as fh:
        got = json.load(fh)
    lyap = _lyapunov(json.dumps(cfg, sort_keys=True))
    if got["params"] != lyap.lp.as_dict():
        return [f"params {got['params']} != library selection {lyap.lp.as_dict()}"]
    if cfg["equilibrium"] == "df":
        return []
    p, lp = lyap.p, lyap_en.EnLyapParams.from_dict(got["params"])
    problems = []
    if not lyap_en.check_condition_50(p, lp).passed:
        problems.append("emitted params fail condition (50)")
    k0 = lyap_en.k0_bound(p, lp.l_bar, lp.lambda1, lp.lambda2)
    if not lp.k < k0:
        problems.append(f"emitted k={lp.k!r} not below k0={k0!r}")
    return problems


def read_contours_csv(path: Path) -> dict:
    """{level: (n, 2) vertices} from a `level,polyline_id,x1,x2` file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["level", "polyline_id", "x1", "x2"]:
        raise ValueError(f"level-set header {rows[0]!r}")
    out = {}
    for level, pid, x1, x2 in rows[1:]:
        if int(pid) >= 0:
            out.setdefault(float(level), []).append((float(x1), float(x2)))
    return {lv: np.array(pts) for lv, pts in out.items()}


def check_levelsets(cfg: dict, out_dir: Path, stdout: str) -> list:
    lyap = _lyapunov(json.dumps(cfg, sort_keys=True))
    got = read_contours_csv(out_dir / f"levelsets_{cfg['equilibrium']}.csv")
    problems = []
    levels = [float(v) for v in cfg["levels"]]
    if sorted(got) != sorted(levels):
        problems.append(f"levels {sorted(got)} != requested {levels}")
    if lyap.kind is model.EquilibriumKind.DISEASE_FREE:
        window = cfg["window"]
        nu, nv = cfg["resolution"]
        cell = math.hypot((window[0][1] - window[0][0]) / (nu - 1),
                          (window[1][1] - window[1][0]) / (nv - 1))
    for level, pts in got.items():
        X = np.column_stack([pts, np.zeros(len(pts))])
        if lyap.kind is model.EquilibriumKind.ENDEMIC:
            v = lyap_en.en_value_many(lyap.p, lyap.lp, X, l_cap=np.inf)
        else:
            v = lyap.value_many(X)
        resid = np.abs(v - level)
        if not np.all(resid <= LEVEL_RTOL * (1.0 + level)):
            problems.append(f"level {level}: |V - level| up to {np.nanmax(resid):.3g}")
        if lyap.kind is model.EquilibriumKind.DISEASE_FREE:
            exact = levelset.analytic_contour_df(lyap.lp, lyap.p, level).polylines[0]
            dist = levelset.polyline_distance(pts, exact)
            if dist.max() > cell:
                problems.append(f"level {level}: {dist.max():.3g} from the exact contour "
                                f"(one grid cell is {cell:.3g})")
    return problems


CHECKS = {
    "equilibria": check_equilibria,
    "simulate": check_simulate,
    "certify": check_certify,
    "params": check_params,
    "levelsets": check_levelsets,
}


def check(kind: str, cfg: dict, out_dir: Path, stdout: str) -> list:
    """Problems with one command's output; unreadable output is a problem too."""
    try:
        return CHECKS[kind](cfg, out_dir, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

"""Command-line front end: simulate, classify, validate, sweep.

simulate and sweep evaluate the exact propagator (gaussian.propagate) on the
sample grid set by --step; validate cross-checks it against the independent
routes, the RK4 integrator (ode.integrate) among them.

Outputs are deterministic: identical configuration produces byte-identical
files (floats are written with 17 significant digits, CSV uses comma
separators and LF line endings, JSON keys are sorted).

Exit codes: 0 ok, 2 configuration error, 3 divergence (unless
--allow-divergence), 4 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .closed_form import Metric, RealState, closed_series, metric_eigen
from .errors import SwansimError
from .gaussian import (
    GaussianState,
    evolve_b,
    evolve_state,
    gaussian_norm,
    mapped_dynamics,
    metric_from_b,
    project_expectations,
    propagate,
    riccati_direct,
)
from .geometry import DEFAULT_BAND, classify_metric, grid_axes, region_grid
from .model import SwansonParams, spectral_data, swanson_hamiltonian
from .ode import MetriplecticState, integrate, step_count

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_VALIDATION = 4

DEFAULT_STEPS_PER_PERIOD = 10_000
# most samples, coupling values or grid points one run may ask for; refused before allocation
MAX_SAMPLES = 10_000_000

CSV_HEADER = "t,t_per_T,P,Q,g_pp,g_pq,g_qq,g_plus,g_minus,phi,n,divergent"

VALIDATION_THRESHOLDS = {
    "Z": 1e-6,
    "G": 1e-6,
    "n": 1e-6,
    "B": 1e-8,
    "mapped": 1e-8,
    "order_low": 3.7,
    "order_high": 4.3,
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    omega0: float = 1.0
    delta: float = 0.5
    p0: float = 1.0
    q0: float = 0.0
    g0: tuple[float, float, float] = (1.0, 0.0, 1.0)
    b0: complex | None = None
    n0: float = 1.0
    step: float | None = None
    periods: float = 1.0
    out: str | None = None
    allow_divergence: bool = False
    re_min: float = -2.0
    re_max: float = 2.0
    im_min: float = 0.05
    im_max: float = 2.0
    resolution: int = 41
    band: float = DEFAULT_BAND
    delta_min: float = 0.0
    delta_max: float = 1.2
    delta_step: float = 0.1

    @property
    def params(self) -> SwansonParams:
        try:
            return SwansonParams(self.omega0, self.delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def sample_step(self, period: float, span: float) -> float:
        """Sample spacing of a run over [0, span]: --step, or period / 10^4.

        Refused unless positive and at most the span, and if the grid would
        hold more than MAX_SAMPLES samples.
        """
        step = period / DEFAULT_STEPS_PER_PERIOD if self.step is None else self.step
        if not step > 0:
            raise ConfigError("step must be positive")
        if not step <= span:
            raise ConfigError(f"step {step:g} exceeds the time span {span:g}")
        if not (math.isfinite(span / step) and step_count(span, step) < MAX_SAMPLES):
            raise ConfigError(f"{span / step:.3g} steps exceed the limit of {MAX_SAMPLES} samples")
        return step

    def checked_periods(self) -> float:
        if not self.periods > 0:
            raise ConfigError("periods must be positive")
        return self.periods

    def initial_metric(self) -> Metric:
        if self.b0 is not None:
            if self.b0.imag <= 0:
                raise ConfigError("b0 must have positive imaginary part")
            return metric_from_b(self.b0)
        g_pp, g_pq, g_qq = self.g0
        try:
            g = Metric(g_pp, g_pq, g_qq)
        except ValueError as exc:
            raise ConfigError(f"invalid initial metric: {exc}") from exc
        if abs(g.det - 1.0) > 1e-6:
            raise ConfigError(f"initial metric must have unit determinant, got {g.det}")
        return g

    def initial_state(self) -> MetriplecticState:
        if not (math.isfinite(self.n0) and self.n0 > 0):
            raise ConfigError("n0 must be positive and finite")
        try:
            centre = RealState(self.p0, self.q0)
        except ValueError as exc:
            raise ConfigError(f"invalid initial centre: {exc}") from exc
        return MetriplecticState(Z=centre, G=self.initial_metric(), n=self.n0)


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers g_pp,g_pq,g_qq")
    return tuple(float(p) for p in parts)


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers re,im")
    return complex(float(parts[0]), float(parts[1]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swansim",
        description="Metriplectic and Gaussian wave-packet dynamics of the Swanson oscillator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega0", type=float, default=None, help="oscillator frequency (> 0)")
    common.add_argument("--delta", type=float, default=None, help="gain-loss coupling")
    common.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
    common.add_argument("--out", type=str, default=None, help="output file path (default: stdout)")
    common.add_argument("--step", type=float, default=None, help="sample spacing (default: period/10^4)")
    common.add_argument("--periods", type=float, default=None, help="time span in periods (default: 1)")
    common.add_argument(
        "--allow-divergence",
        action="store_true",
        default=None,
        help="exit 0 instead of 3 when the run diverges",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common], help="time series of centre, metric and norm")
    p_sim.add_argument("--p0", type=float, default=None, help="initial momentum")
    p_sim.add_argument("--q0", type=float, default=None, help="initial position")
    p_sim.add_argument("--g0", type=_parse_triple, default=None, help="initial metric g_pp,g_pq,g_qq")
    p_sim.add_argument("--b0", type=_parse_complex_pair, default=None, help="initial uncertainty re,im (overrides --g0)")
    p_sim.add_argument("--n0", type=float, default=None, help="initial survival probability")

    p_cls = sub.add_parser("classify", parents=[common], help="divergence regions in the uncertainty plane")
    p_cls.add_argument("--re-min", type=float, default=None)
    p_cls.add_argument("--re-max", type=float, default=None)
    p_cls.add_argument("--im-min", type=float, default=None)
    p_cls.add_argument("--im-max", type=float, default=None)
    p_cls.add_argument("--resolution", type=int, default=None)
    p_cls.add_argument("--band", type=float, default=None, help="boundary half-width")

    sub.add_parser("validate", parents=[common], help="cross-check all computation routes")

    p_swp = sub.add_parser("sweep", parents=[common], help="sweep the coupling and record outcomes")
    p_swp.add_argument("--delta-min", type=float, default=None)
    p_swp.add_argument("--delta-max", type=float, default=None)
    p_swp.add_argument("--delta-step", type=float, default=None)
    p_swp.add_argument("--p0", type=float, default=None)
    p_swp.add_argument("--q0", type=float, default=None)
    p_swp.add_argument("--g0", type=_parse_triple, default=None)

    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def _is_number(value) -> bool:
    # bool is a subclass of int; an int beyond float range cannot become a float
    return not isinstance(value, bool) and (
        isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max
    )


def _is_numbers(value, count: int) -> bool:
    return isinstance(value, list) and len(value) == count and all(map(_is_number, value))


# RunConfig field type (as annotated, without "| None") -> (what a JSON value
# must be, the check that it is, the conversion to the field's type)
_CONFIG_TYPES = {
    "float": ("a number", _is_number, float),
    "int": ("an integer", lambda v: _is_number(v) and float(v).is_integer(), int),
    "bool": ("a boolean", lambda v: isinstance(v, bool), bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "tuple[float, float, float]": ("a list of 3 numbers", lambda v: _is_numbers(v, 3), lambda v: tuple(map(float, v))),
    "complex": ("a list of 2 numbers", lambda v: _is_numbers(v, 2), lambda v: complex(*map(float, v))),
}


def _config_value(field: dataclasses.Field, value):
    """A config-file value converted to its RunConfig field's type; ConfigError if it does not fit."""
    kind = field.type.removesuffix(" | None")
    if value is None and kind != field.type:
        return None
    expected, fits, convert = _CONFIG_TYPES[kind]
    if not fits(value):
        raise ConfigError(f"config key {field.name}: expected {expected}, got {json.dumps(value)}")
    return convert(value)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for key, value in file_values.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {key}")
        setattr(cfg, key, _config_value(fields[key], value))
    for key in fields:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_rows(traj, period: float) -> list[str]:
    rows = [CSV_HEADER]
    for t, row in zip(traj.times, traj.values):
        g = Metric(row[2], row[3], row[4])
        g_plus, g_minus, phi = metric_eigen(g)
        cells = [t, t / period, row[0], row[1], row[2], row[3], row[4], g_plus, g_minus, phi, row[5]]
        rows.append(",".join(_fmt(c) for c in cells) + ",0")
    if traj.divergence_time is not None:
        t = traj.divergence_time
        nan = float("nan")
        cells = [t, t / period] + [nan] * 9
        rows.append(",".join(_fmt(c) for c in cells) + ",1")
    return rows


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.params
    t_end = cfg.checked_periods() * params.period
    step = cfg.sample_step(params.period, t_end)
    traj = propagate(swanson_hamiltonian(params), cfg.initial_state(), t_end, step)
    _write_text(cfg.out, "\n".join(_csv_rows(traj, params.period)) + "\n")
    if traj.divergence_time is not None and not cfg.allow_divergence:
        print(f"divergence detected at t = {traj.divergence_time:.6g}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    params = cfg.params
    if cfg.resolution**2 > MAX_SAMPLES:
        raise ConfigError(f"a {cfg.resolution}x{cfg.resolution} grid exceeds the limit of {MAX_SAMPLES} samples")
    try:
        labels = region_grid(
            params,
            (cfg.re_min, cfg.re_max),
            (cfg.im_min, cfg.im_max),
            cfg.resolution,
            band=cfg.band,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    doc = {
        "params": {"omega0": params.omega0, "delta": params.delta},
        "re_range": [cfg.re_min, cfg.re_max],
        "im_range": [cfg.im_min, cfg.im_max],
        "resolution": cfg.resolution,
        "band": cfg.band,
        "labels": [label.value for label in labels.ravel()],
    }
    _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _first_pole_time(params: SwansonParams) -> float | None:
    """Earliest blow-up time of the identity-seeded flow, None if bounded."""
    w0, d = params.omega0, params.delta
    if d * d < w0 * w0:
        return None
    w = params.omega
    arg = 1.0 - w * w / (d * d)
    return math.acos(max(-1.0, arg)) / (2.0 * w)


def _validation_errors(params: SwansonParams, step: float) -> dict:
    t_end = params.period
    z0 = RealState(1.0, 0.0)
    init = MetriplecticState(Z=z0, G=Metric.identity(), n=1.0)
    traj = integrate(swanson_hamiltonian(params), init, t_end, step)
    ref = closed_series(params, z0, traj.times)
    diff = np.abs(traj.values - ref)
    return {
        "Z": float(diff[:, :2].max()),
        "G": float(diff[:, 2:5].max()),
        "n": float(diff[:, 5].max()),
    }


def _mobius_vs_riccati(params: SwansonParams, step: float) -> float:
    model = swanson_hamiltonian(params)
    t_end = params.period
    n_steps = max(1, int(round(t_end / step)))
    times = step * np.arange(n_steps + 1)
    worst = 0.0
    for b0 in (spectral_data(params).ground_b, 1j, 0.8 + 1.5j, -0.6 + 2j):
        direct = riccati_direct(model, b0, t_end, step)
        mob = np.array([evolve_b(model, b0, t) for t in times[:: max(1, n_steps // 100)]])
        ref = direct[:: max(1, n_steps // 100)]
        worst = max(worst, float(np.abs(mob - ref).max()))
    return worst


def _mapped_vs_direct(params: SwansonParams) -> float:
    model = swanson_hamiltonian(params)
    state0 = GaussianState.coherent(RealState(1.0, 0.0))
    worst = 0.0
    for frac in (0.2, 0.5, 0.8, 1.0):
        t = frac * params.period
        direct = evolve_state(model, state0, t)
        mapped = mapped_dynamics(params, state0, t)
        zd = project_expectations(direct.z, direct.b)
        zm = project_expectations(mapped.z, mapped.b)
        worst = max(
            worst,
            abs(direct.b - mapped.b),
            abs(zd.P - zm.P),
            abs(zd.Q - zm.Q),
            abs(gaussian_norm(direct) - gaussian_norm(mapped)),
        )
    return float(worst)


def _convergence_order(params: SwansonParams) -> float:
    t_period = params.period
    e1 = _validation_errors(params, t_period / 100)["Z"]
    e2 = _validation_errors(params, t_period / 200)["Z"]
    return math.log2(e1 / e2)


def cmd_validate(cfg: RunConfig) -> int:
    params = cfg.params
    step = cfg.sample_step(params.period, params.period)
    thresholds = dict(VALIDATION_THRESHOLDS)
    pole = _first_pole_time(params)
    failures: list[str] = []
    report: dict = {
        "params": {"omega0": params.omega0, "delta": params.delta},
        "step": step,
        "thresholds": thresholds,
    }
    if pole is not None:
        init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
        traj = integrate(swanson_hamiltonian(params), init, params.period, step)
        ok = traj.divergence_time is not None and abs(traj.divergence_time - pole) <= 2 * step
        report["divergence"] = {
            "closed_form_time": pole,
            "ode_time": traj.divergence_time,
            "within_tolerance": ok,
        }
        report["max_errors"] = None
        report["convergence_order"] = None
        if not ok:
            failures.append("divergence time mismatch between routes")
    else:
        errors = _validation_errors(params, step)
        errors["B"] = _mobius_vs_riccati(params, step)
        errors["mapped"] = _mapped_vs_direct(params)
        order = _convergence_order(params)
        report["divergence"] = None
        report["max_errors"] = errors
        report["convergence_order"] = order
        for key in ("Z", "G", "n", "B", "mapped"):
            if errors[key] > thresholds[key]:
                failures.append(f"{key} error {errors[key]:.3e} exceeds {thresholds[key]:.1e}")
        if not (thresholds["order_low"] <= order <= thresholds["order_high"]):
            failures.append(f"convergence order {order:.3f} outside [3.7, 4.3]")
    report["failures"] = failures
    report["pass"] = not failures
    _write_text(cfg.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if not failures else EXIT_VALIDATION


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.delta_step > 0:
        raise ConfigError("delta-step must be positive")
    periods = cfg.checked_periods()
    init = cfg.initial_state()
    rows = ["delta,label,diverged,divergence_time,max_g_plus"]
    n_delta_steps = (cfg.delta_max - cfg.delta_min) / cfg.delta_step
    if not (math.isfinite(n_delta_steps) and n_delta_steps < MAX_SAMPLES):
        raise ConfigError(f"the coupling range must hold at most {MAX_SAMPLES} values")
    n_values = int(math.floor(n_delta_steps + 1e-9)) + 1
    for k in range(max(0, n_values)):
        delta = cfg.delta_min + k * cfg.delta_step
        params = dataclasses.replace(cfg, delta=delta).params
        label = classify_metric(params, init.G, band=cfg.band)
        t_end = periods * params.period
        traj = propagate(swanson_hamiltonian(params), init, t_end, cfg.sample_step(params.period, t_end))
        g_plus = np.array([metric_eigen(Metric(r[2], r[3], r[4]))[0] for r in traj.values[:: max(1, len(traj.values) // 200)]])
        diverged = traj.divergence_time is not None
        rows.append(
            ",".join(
                [
                    _fmt(delta),
                    label.value,
                    "1" if diverged else "0",
                    _fmt(traj.divergence_time) if diverged else "",
                    _fmt(float(g_plus.max())) if len(g_plus) else "",
                ]
            )
        )
    _write_text(cfg.out, "\n".join(rows) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        handler = {
            "simulate": cmd_simulate,
            "classify": cmd_classify,
            "validate": cmd_validate,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SwansimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

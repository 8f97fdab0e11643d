"""Command-line front end: simulate, classify, validate, sweep.

simulate and sweep evaluate the exact propagator (gaussian._propagate_blocks)
on the sample grid set by --step; validate cross-checks the closed forms
against the independent routes, the RK4 oracles (ode._rk4_blocks through
ode._integrate_blocks, whose blocks have the exact engine's shape, and
gaussian._riccati_steps) among them.
_validation_report runs those checks one after another in the calling process
and builds the whole report; cmd_validate writes it and picks the exit code.

Outputs are deterministic: identical configuration produces byte-identical
files (floats are written as %.17g writes them, CSV uses comma separators and
LF line endings, JSON keys are sorted).  simulate's sample lines come from
_csvrows.sample_lines, which computes the digits of every cell in [1e-4, 1e17)
with numpy, exactly, and writes a row holding any other cell (a signed zero,
exponent notation, inf or NaN) with the % template.

Outputs are streamed, so no chunk of text grows with the run: simulate's CSV
one pass of _csvrows.sample_lines at a time, the classify labels in runs of
equal labels.  Nor does the memory behind them.  classify computes, labels and
writes its grid one block of rows at a time (geometry._grid_blocks), and
peaks at about 31 MB resident at any resolution.  simulate and sweep hold one
engine block of ode.BLOCK_ROWS rows at a time.  simulate computes,
formats and writes a block before it computes the next, and peaks at about
31.5 MB resident whether it runs 2 periods or 200.  sweep needs only each run's
stop, and takes it from _stops._stop_index: the closed forms prove most
bounded runs without evaluating a row, and any other run is scanned block by
block.  validate holds one block of the metriplectic RK4 oracle at a time:
it compares each block with closed_series as it comes and keeps the running
largest errors, and its divergence check keeps only the stop.  The Riccati
oracle is a stream of steps, of which the Riccati check keeps only the
strided samples it compares.  validate peaks at about 30 MB resident
whatever its step.

main(argv) is the in-process API; a process runs it through swansim.__main__.
json is imported inside the functions that use it, so simulate and sweep
without --config never load it.  Nor does importing cli load the engine
(closed_form, gaussian, ode), which classify never runs: main imports the
engine modules its command names in _COMMANDS and binds the names cli takes
from them (_ENGINE) as globals of cli, keeping any name already bound, and a
name read from outside before that binds its module on first read.

Exit codes: 0 ok, 2 configuration or numerical (SwansimError) error or an
unwritable --out, 3 divergence (unless --allow-divergence), 4 validation
failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from importlib import import_module

import numpy as np

from .errors import MobiusPoleError, SwansimError
from .geometry import DEFAULT_BAND, RegionLabel, _grid_blocks, classify_metric, region_grid
from .model import SwansonParams, _Value, swanson_hamiltonian

__all__ = ["main"]

# engine module -> the names cli takes from it.  They are globals of cli that _bind binds for the
# commands that run the module (classify runs none), or __getattr__ on their first read from outside.
# integrate and riccati_direct, like geometry's region_grid, are not called here: validate consumes
# the oracles' blocks and steps, and classify the grid's blocks.  perfbench/tracing.py rebinds them
# on this module to time them, so they stay readable from it.
_ENGINE = {
    "closed_form": ("Metric", "RealState", "closed_series", "first_pole_time", "metric_eigen"),
    "gaussian": ("GaussianState", "_propagate_blocks", "_riccati_steps", "_sampled_rows", "evolve_b", "evolve_state",
                 "gaussian_norm", "mapped_dynamics", "metric_from_b", "project_expectations", "riccati_direct"),
    "ode": ("MetriplecticState", "_integrate_blocks", "step_count", "integrate"),
}
_HOME = {name: module for module, names in _ENGINE.items() for name in names}


def _bind(modules) -> None:
    """Import each engine module named in modules and bind the names cli takes from it.

    setdefault keeps a name already bound, so a function that a test or a tracer rebound on cli
    before the command ran is the one the command calls.
    """
    for module in modules:
        home = import_module(f".{module}", __package__)
        for name in _ENGINE[module]:
            globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    """An engine name not bound yet (PEP 562): its module's names are bound, then it is read."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((_HOME[name],))
    return globals()[name]


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_VALIDATION = 4

DEFAULT_STEPS_PER_PERIOD = 10_000
# most samples, coupling values or grid points one run may ask for; refused before allocation
MAX_SAMPLES = 10_000_000

# JSON text of each label, indexed by the grid's code: code k stands for list(RegionLabel)[k]; the
# labels are plain ASCII words, which JSON quotes as they are
_QUOTED_LABELS = tuple(f'"{label.value}"' for label in RegionLabel)
# most labels in one chunk of classify's output; a longer run of equal labels is cut
_LABEL_RUN_CAP = 8192

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


def _params(omega0: float, delta: float) -> SwansonParams:
    """The model; ConfigError if SwansonParams refuses it."""
    try:
        return SwansonParams(omega0, delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class RunConfig(_Value, frozen=False):
    """A run's settings: the class-level defaults, then the --config file's values and the flags."""

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
        """The model of omega0 and delta; ConfigError if SwansonParams refuses it."""
        return _params(self.omega0, self.delta)

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
        try:
            if self.b0 is not None:
                if self.b0.imag <= 0:
                    raise ConfigError("b0 must have positive imaginary part")
                g = metric_from_b(self.b0)
            else:
                g = Metric(*self.g0)
        except ValueError as exc:
            raise ConfigError(f"invalid initial metric: {exc}") from exc
        # written so that a NaN determinant (inf - inf) is refused too; a b0 far from the
        # imaginary axis gives a metric whose determinant rounding has lost
        if not abs(g.det - 1.0) <= 1e-6:
            raise ConfigError(f"initial metric must have unit determinant, got {g.det}")
        return g

    def initial_state(self) -> MetriplecticState:
        try:
            return MetriplecticState(Z=RealState(self.p0, self.q0), G=self.initial_metric(), n=self.n0)
        except ValueError as exc:
            raise ConfigError(f"invalid initial state: {exc}") from exc


def _load_config_file(path: str) -> dict:
    import json

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


def _config_value(name: str, value):
    """A config value converted to the type of the RunConfig field name; ConfigError if it does not fit."""
    annotation = RunConfig.__annotations__[name]
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return None
    expected, fits, convert = _CONFIG_TYPES[kind]
    if not fits(value):
        import json

        raise ConfigError(f"{name}: expected {expected}, got {json.dumps(value)}")
    return convert(value)


def _number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _flag_value(name: str, text):
    """The JSON value a flag's text stands for: a number or a comma-separated list of numbers, else
    the text itself (always for the str field name); a switch's True as is."""
    if text is True or RunConfig.__annotations__[name].startswith("str"):
        return text
    try:
        values = [_number(part) for part in text.split(",")]
    except ValueError:
        return text
    return values if len(values) > 1 else values[0]


def _merge_config(args: dict, names: tuple[str, ...]) -> RunConfig:
    """RunConfig from the --config file's values, overridden by the flags given in args.

    names are the RunConfig fields the subcommand declares; a file key outside them is refused.
    """
    file_values = _load_config_file(args.pop("config")) if "config" in args else {}
    cfg = RunConfig()
    for key, value in file_values.items():
        if key not in names:
            raise ConfigError(f"unknown config key: {key}")
        setattr(cfg, key, _config_value(key, value))
    for key, text in args.items():
        setattr(cfg, key, _config_value(key, _flag_value(key, text)))
    return cfg


def _write_chunks(path: str | None, chunks):
    """Write an iterable of text chunks to path, or to stdout; ConfigError if path cannot be written."""
    if path is None:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early, as `| head` does: the rest is dropped, and stdout
            # goes to devnull so that the flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """ConfigError if path cannot be opened for writing; truncates nothing, removes a file it made,
    and leaves a FIFO or device, which opening affects, to the write."""
    try:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
        except FileExistsError:
            if os.path.isfile(path) or os.path.isdir(path):
                os.close(os.open(path, os.O_WRONLY))
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.params
    t_end = cfg.checked_periods() * params.period
    step = cfg.sample_step(params.period, t_end)
    blocks = _propagate_blocks(swanson_hamiltonian(params), cfg.initial_state(), t_end, step)
    stop = -1

    def chunks():
        """The CSV: the header, each block's sample lines (11 cells as _fmt writes them, then the
        flag 0) one pass at a time, then the flagged divergence line."""
        nonlocal stop
        # imported here, so that a run that writes no CSV does not compile it
        from ._csvrows import sample_lines

        yield CSV_HEADER + "\n"
        for k0, rows, stop, _ in blocks:
            times = step * np.arange(k0, k0 + len(rows))
            eigen = metric_eigen(rows[:, 2], rows[:, 3], rows[:, 4])
            yield from sample_lines(np.column_stack((times, times / params.period, rows[:, :5], *eigen, rows[:, 5])))
        if stop >= 0:
            t = stop * step
            yield ",".join(_fmt(c) for c in [t, t / params.period] + [math.nan] * 9) + ",1\n"

    _write_chunks(cfg.out, chunks())
    # a reader that went away leaves blocks unread; the exit code needs their stop
    for _, _, stop, _ in blocks:
        pass
    if stop >= 0 and not cfg.allow_divergence:
        print(f"divergence detected at t = {stop * step:.6g}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    import json

    params = cfg.params
    if cfg.resolution**2 > MAX_SAMPLES:
        raise ConfigError(f"a {cfg.resolution}x{cfg.resolution} grid exceeds the limit of {MAX_SAMPLES} samples")
    try:
        blocks = _grid_blocks(
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
        "labels": None,
    }
    # json.dumps(..., indent=2) encodes in pure Python, one call per label; the
    # label array is written in runs where the placeholder sits, each block of
    # codes as it is computed
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition('"labels": null')
    _write_chunks(cfg.out, itertools.chain([head + '"labels": '], _label_chunks(blocks), [tail + "\n"]))
    return EXIT_OK


def _label_chunks(blocks):
    """The labels of an iterable of non-empty code arrays, in order, as the JSON array
    json.dumps(indent=2) writes for a top-level key.

    Every label but the first is ",\\n    " + label, so a run of equal codes cut at a block edge
    writes the same bytes as an uncut run.
    """
    runs = _label_runs(blocks)
    # the first label opens the bracket in place of its comma
    yield "[" + next(runs)[1:]
    yield from runs
    yield "\n  ]"


def _label_runs(blocks):
    """Each block's runs of equal codes as one repeated ",\\n    " + label, cut every _LABEL_RUN_CAP labels."""
    for block in blocks:
        flat = block.ravel()
        cuts = (np.flatnonzero(flat[1:] != flat[:-1]) + 1).tolist()
        starts = [0] + cuts
        for start, end, code in zip(starts, cuts + [flat.size], flat[starts].tolist()):
            item = ",\n    " + _QUOTED_LABELS[code]
            for lo in range(start, end, _LABEL_RUN_CAP):
                yield item * min(_LABEL_RUN_CAP, end - lo)


def _validation_seed() -> MetriplecticState:
    """The RK4 seed of validate's checks against the closed forms and of its divergence check."""
    return MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)


def _rk4_oracle(params: SwansonParams, step: float):
    """The RK4 oracle's blocks over one period from _validation_seed() (ode._integrate_blocks)."""
    return _integrate_blocks(swanson_hamiltonian(params), _validation_seed(), params.period, step)


def _validation_errors(params: SwansonParams, step: float) -> dict:
    """Largest |RK4 - closed form| of the centre, the metric and n, one RK4 block at a time."""
    # np.maximum, unlike max(), keeps a NaN, as the max over the whole run would
    worst = np.zeros(3)
    z0 = _validation_seed().Z
    for k0, rows, _, _ in _rk4_oracle(params, step):
        # a run cut on a block edge ends in an empty block
        if len(rows):
            ref = closed_series(params, z0, step * np.arange(k0, k0 + len(rows)))
            diff = np.abs(rows - ref)
            worst = np.maximum(worst, (diff[:, :2].max(), diff[:, 2:5].max(), diff[:, 5].max()))
    return {"Z": float(worst[0]), "G": float(worst[1]), "n": float(worst[2])}


def _mobius_vs_riccati(params: SwansonParams, step: float) -> float | None:
    """Largest |b| difference of the Möbius route from the Riccati RK4 oracle on every stride-th
    step; None if the oracle left the chart, which an under-resolved step does near |delta| = omega0.

    Only the strided steps of each oracle run (gaussian._riccati_steps) are kept."""
    model = swanson_hamiltonian(params)
    t_end = params.period
    n_steps = step_count(t_end, step)
    stride = max(1, n_steps // 100)
    times = step * np.arange(0, n_steps + 1, stride)
    worst = 0.0
    for b0 in (params.ground_b, 1j, 0.8 + 1.5j, -0.6 + 2j):
        try:
            # islice runs the stream to its end, so a run that leaves the chart after its last
            # strided step is refused too
            ref = np.fromiter(itertools.islice(_riccati_steps(model, b0, t_end, step), 0, None, stride), complex)
        except MobiusPoleError:
            return None
        mob = np.array([evolve_b(model, b0, t) for t in times])
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


def _validation_report(params: SwansonParams, step: float) -> dict:
    """validate's report on a model at this sample step: each check's result and threshold, the
    failures and the verdict "pass".  The checks run in turn; a SwansimError of one propagates."""
    thresholds = dict(VALIDATION_THRESHOLDS)
    pole = first_pole_time(params)
    failures: list[str] = []
    report: dict = {
        "params": {"omega0": params.omega0, "delta": params.delta},
        "step": step,
        "thresholds": thresholds,
    }
    if pole is not None:
        for _, _, stop, _ in _rk4_oracle(params, step):
            pass
        ode_time = stop * step if stop >= 0 else None
        ok = ode_time is not None and abs(ode_time - pole) <= 2 * step
        report["divergence"] = {
            "closed_form_time": pole,
            "ode_time": ode_time,
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
            if errors[key] is None:  # only B's oracle can stop short
                failures.append("B not checked: the Riccati RK4 oracle left the chart")
            elif errors[key] > thresholds[key]:
                failures.append(f"{key} error {errors[key]:.3e} exceeds {thresholds[key]:.1e}")
        low, high = thresholds["order_low"], thresholds["order_high"]
        if not (low <= order <= high):
            failures.append(f"convergence order {order:.3f} outside [{low}, {high}]")
    report["failures"] = failures
    report["pass"] = not failures
    return report


def cmd_validate(cfg: RunConfig) -> int:
    import json

    params = cfg.params
    report = _validation_report(params, cfg.sample_step(params.period, params.period))
    _write_chunks(cfg.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.delta_step > 0:
        raise ConfigError("delta-step must be positive")
    periods = cfg.checked_periods()
    init = cfg.initial_state()
    if cfg.delta_max < cfg.delta_min:
        raise ConfigError(f"delta-max {cfg.delta_max:g} is below delta-min {cfg.delta_min:g}")
    rows = ["delta,label,diverged,divergence_time,max_g_plus"]
    n_delta_steps = (cfg.delta_max - cfg.delta_min) / cfg.delta_step
    if not (math.isfinite(n_delta_steps) and n_delta_steps < MAX_SAMPLES):
        raise ConfigError(f"the coupling range must hold at most {MAX_SAMPLES} values")
    n_values = int(math.floor(n_delta_steps + 1e-9)) + 1
    # imported here, so that the other commands do not compile it
    from ._stops import _stop_index

    for k in range(n_values):
        delta = cfg.delta_min + k * cfg.delta_step
        params = _params(cfg.omega0, delta)
        label = classify_metric(params, init.G)
        t_end = periods * params.period
        step = cfg.sample_step(params.period, t_end)
        stop = _stop_index(params, init, t_end, step)
        diverged = stop >= 0
        # every max(1, kept // 200)-th kept row, evaluated again once the stop is known, so that
        # no row outlives its block; the stop is never row 0, so the sample is never empty
        kept = stop if diverged else step_count(t_end, step) + 1
        sample, _ = _sampled_rows(swanson_hamiltonian(params), init, step * np.arange(0, kept, max(1, kept // 200)))
        g_plus = metric_eigen(sample[:, 2], sample[:, 3], sample[:, 4])[0]
        rows.append(
            ",".join(
                [
                    _fmt(delta),
                    label.value,
                    "1" if diverged else "0",
                    _fmt(stop * step) if diverged else "",
                    _fmt(g_plus.max()),
                ]
            )
        )
    _write_chunks(cfg.out, ["\n".join(rows) + "\n"])
    return EXIT_OK


# subcommand -> (handler, help line, the RunConfig fields it takes as flags and
# as config keys, the engine modules it runs); every subcommand also takes --config
_COMMANDS = {
    "simulate": (cmd_simulate, "time series of centre, metric and norm",
                 ("omega0", "delta", "out", "step", "periods", "allow_divergence", "p0", "q0", "g0", "b0", "n0"),
                 tuple(_ENGINE)),
    "classify": (cmd_classify, "divergence regions in the uncertainty plane",
                 ("omega0", "delta", "out", "re_min", "re_max", "im_min", "im_max", "resolution", "band"), ()),
    "validate": (cmd_validate, "cross-check all computation routes", ("omega0", "delta", "out", "step"),
                 tuple(_ENGINE)),
    "sweep": (cmd_sweep, "sweep the coupling and record outcomes",
              ("omega0", "out", "step", "periods", "delta_min", "delta_max", "delta_step", "p0", "q0", "g0"),
              tuple(_ENGINE)),
}

# help line of each flag that has one
_FLAG_HELP = {
    "omega0": "oscillator frequency (> 0)",
    "delta": "gain-loss coupling",
    "out": "output file path (default: stdout)",
    "step": "sample spacing (default: period/10^4)",
    "periods": "time span in periods (default: 1)",
    "allow_divergence": "exit 0 instead of 3 when the run diverges",
    "p0": "initial momentum",
    "q0": "initial position",
    "g0": "initial metric g_pp,g_pq,g_qq",
    "b0": "initial uncertainty re,im (overrides --g0)",
    "n0": "initial survival probability",
    "band": "boundary half-width",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Refuse bad argv (unknown flag, missing value or subcommand) in one line, exit 2."""
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """Refuse leftover argv in the parser that met it, so the line names its subcommand."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    """Flags hold text only: _merge_config checks it against the RunConfig field like a config value."""
    description = "Metriplectic and Gaussian wave-packet dynamics of the Swanson oscillator"
    # allow_abbrev=False: a flag has one spelling, no prefix of it is read as the flag
    parser = _Parser(prog="swansim", description=description, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, names, _) in _COMMANDS.items():
        # an absent flag leaves no attribute, so only given flags override the config file
        subparser = sub.add_parser(command, help=help_line, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        subparser.add_argument("--config", help="JSON config file; flags override it")
        for name in names:
            switch = {"action": "store_true"} if RunConfig.__annotations__[name] == "bool" else {}
            subparser.add_argument("--" + name.replace("_", "-"), help=_FLAG_HELP.get(name), **switch)
        # argparse reads only -N and -N.N as negative numbers, so -5e-1 or -0.5,1
        # after a flag would be taken for an option name; no option starts with a digit
        subparser._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    handler, _, names, modules = _COMMANDS[args.pop("command")]
    _bind(modules)
    try:
        cfg = _merge_config(args, names)
        if cfg.out is not None:
            _check_writable(cfg.out)
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SwansimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


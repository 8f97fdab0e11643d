"""Command-line front end: simulate, classify, validate, sweep.

simulate and sweep evaluate the exact propagator (gaussian.propagate) on the
sample grid set by --step; validate cross-checks it against the independent
routes, the RK4 integrator (ode.integrate) among them.

Two jobs use a second CPU through one forked child (_Forked), and each falls
back to doing the child's share in-process, to the same bytes, without
os.fork or os.memfd_create, or when the child fails: validate runs the checks
that share nothing with the metriplectic RK4 there, and simulate, from two
blocks of rows on and given a second CPU, formats the later half of its CSV,
one child per part of 2 * _SPILL_ROWS rows.

Outputs are deterministic: identical configuration produces byte-identical
files (floats are written as %.17g writes them, CSV uses comma separators and
LF line endings, JSON keys are sorted).  simulate's sample lines come from
_csvrows.sample_lines, which computes the digits of every cell in [1e-4, 1e17)
with numpy, exactly, and writes a row holding any other cell (a signed zero,
exponent notation, inf or NaN) with the % template.

Outputs are streamed: the CSV in blocks of rows, the classify labels in runs
of equal labels, so no chunk of text grows with the run.

Exit codes: 0 ok, 2 configuration or numerical (SwansimError) error or an
unwritable --out, 3 divergence (unless --allow-divergence), 4 validation
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_form import Metric, RealState, closed_series, first_pole_time, metric_eigen
from .errors import MobiusPoleError, SwansimError
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
from .geometry import DEFAULT_BAND, classify_metric, region_grid
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

# JSON text of the bounded, divergent and boundary labels: region_grid's codes 0, 1, 2
_QUOTED_LABELS = ('"bounded"', '"divergent"', '"boundary"')
# most labels in one chunk of classify's output; a longer run of equal labels is cut
_LABEL_RUN_CAP = 8192

CSV_HEADER = "t,t_per_T,P,Q,g_pp,g_pq,g_qq,g_plus,g_minus,phi,n,divergent"
# CSV rows formatted per chunk (_csvrows.sample_lines, 11 cells as _fmt writes them, then the flag 0)
_CSV_BLOCK_ROWS = 4096
# most CSV rows one forked child formats: its text waits in memory until the process copies it
_SPILL_ROWS = 1 << 16
# bytes of a forked child's output read per chunk
_SPILL_CHUNK = 64 * 1024

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
        """The model; ConfigError if SwansonParams refuses it."""
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
    """A config value converted to its RunConfig field's type; ConfigError if it does not fit."""
    kind = field.type.removesuffix(" | None")
    if value is None and kind != field.type:
        return None
    expected, fits, convert = _CONFIG_TYPES[kind]
    if not fits(value):
        raise ConfigError(f"{field.name}: expected {expected}, got {json.dumps(value)}")
    return convert(value)


def _number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _flag_value(field: dataclasses.Field, text):
    """The JSON value a flag's text stands for: a number or a comma-separated
    list of numbers, else the text itself (always for a str field); a switch's True as is."""
    if text is True or field.type.startswith("str"):
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
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for key, value in file_values.items():
        if key not in names:
            raise ConfigError(f"unknown config key: {key}")
        setattr(cfg, key, _config_value(fields[key], value))
    for key, text in args.items():
        setattr(cfg, key, _config_value(fields[key], _flag_value(fields[key], text)))
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


def _csv_blocks(table: np.ndarray):
    """Sample lines of table's rows, in blocks of _CSV_BLOCK_ROWS."""
    # imported here, so that a run that writes no CSV does not compile it
    from ._csvrows import sample_lines

    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        yield sample_lines(table[start : start + _CSV_BLOCK_ROWS])


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _csv_chunks(traj, period: float):
    """simulate's CSV: the header, blocks of _CSV_BLOCK_ROWS sample lines, then the flagged divergence line.

    Given a second CPU, the rows go in parts of at most 2 * _SPILL_ROWS; in a part of two blocks
    or more, a forked child formats the later half while this process formats and yields the
    earlier half, then copies the child's text in _SPILL_CHUNK pieces.  Without the child this
    process formats the rows itself, to the same text.
    """
    v = traj.values
    eigen = metric_eigen(v[:, 2], v[:, 3], v[:, 4])
    table = np.column_stack((traj.times, traj.times / period, v[:, :5], *eigen, v[:, 5]))
    yield CSV_HEADER + "\n"
    parallel = _cpus() > 1
    for start in range(0, len(table), 2 * _SPILL_ROWS):
        part = table[start : start + 2 * _SPILL_ROWS]
        if len(part) < 2 * _CSV_BLOCK_ROWS or not parallel:
            yield from _csv_blocks(part)
            continue
        later = part[len(part) // 2 :]

        def write_later(fh):
            for block in _csv_blocks(later):
                fh.write(block.encode("ascii"))

        with _Forked(write_later) as child:
            yield from _csv_blocks(part[: len(part) // 2])
            spill = child.reap()
            if spill is None:
                yield from _csv_blocks(later)
            else:
                while piece := spill.read(_SPILL_CHUNK):
                    yield piece.decode("ascii")
    if traj.divergence_time is not None:
        t = traj.divergence_time
        cells = [t, t / period] + [math.nan] * 9
        yield ",".join(_fmt(c) for c in cells) + ",1\n"


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.params
    t_end = cfg.checked_periods() * params.period
    step = cfg.sample_step(params.period, t_end)
    traj = propagate(swanson_hamiltonian(params), cfg.initial_state(), t_end, step)
    chunks = _csv_chunks(traj, params.period)
    try:
        _write_chunks(cfg.out, chunks)
    finally:
        # a failed or cut-short write leaves the generator suspended; closing it reaps its child
        chunks.close()
    if traj.divergence_time is not None and not cfg.allow_divergence:
        print(f"divergence detected at t = {traj.divergence_time:.6g}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    params = cfg.params
    if cfg.resolution**2 > MAX_SAMPLES:
        raise ConfigError(f"a {cfg.resolution}x{cfg.resolution} grid exceeds the limit of {MAX_SAMPLES} samples")
    try:
        codes = region_grid(
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
    # label array is written in runs where the placeholder sits
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition('"labels": null')
    _write_chunks(cfg.out, itertools.chain([head + '"labels": '], _label_chunks(codes), [tail + "\n"]))
    return EXIT_OK


def _label_chunks(codes: np.ndarray):
    """A non-empty code array's labels as the JSON array json.dumps(indent=2) writes for a top-level key.

    Each run of equal codes is one repeated ",\\n    " + label, cut every
    _LABEL_RUN_CAP labels.
    """
    flat = codes.ravel()
    cuts = (np.flatnonzero(flat[1:] != flat[:-1]) + 1).tolist()
    starts = [0] + cuts
    yield "[\n    " + _QUOTED_LABELS[flat[0]]
    for start, end, code in zip(starts, cuts + [flat.size], flat[starts].tolist()):
        item = ",\n    " + _QUOTED_LABELS[code]
        # the first label is already written with the bracket
        for lo in range(max(start, 1), end, _LABEL_RUN_CAP):
            yield item * min(_LABEL_RUN_CAP, end - lo)
    yield "\n  ]"


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


def _mobius_vs_riccati(params: SwansonParams, step: float) -> float | None:
    """Largest |b| difference of the Möbius route from the Riccati RK4 oracle; None if the oracle
    left the chart, which an under-resolved step does near |delta| = omega0."""
    model = swanson_hamiltonian(params)
    t_end = params.period
    n_steps = step_count(t_end, step)
    stride = max(1, n_steps // 100)
    times = step * np.arange(0, n_steps + 1, stride)
    worst = 0.0
    for b0 in (spectral_data(params).ground_b, 1j, 0.8 + 1.5j, -0.6 + 2j):
        try:
            ref = riccati_direct(model, b0, t_end, step)[::stride]
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


class _Forked:
    """write(fh) run in a forked child, fh a binary file over an anonymous in-memory file (memfd).

    reap() waits for the child and gives that file, rewound, or None if the child failed or none
    started (no os.fork or os.memfd_create, or no process or memory to spare); the caller then
    does the work itself.  Leaving the with block reaps the child and closes the file, also when
    the caller stops early.  The child turns warnings into errors, since a warning would print
    there and again in the caller, and leaves by os._exit, so it never flushes the stdout or
    --out handle it inherited.
    """

    def __init__(self, write):
        self._write = write
        self._pid = -1
        self._spill = None

    def __enter__(self):
        try:
            fd = os.memfd_create("swansim")
        except (AttributeError, OSError):
            return self
        self._spill = open(fd, "rb")
        try:
            self._pid = os.fork()
        except (AttributeError, OSError):
            return self
        if self._pid == 0:
            try:
                warnings.simplefilter("error")
                with open(fd, "wb", closefd=False) as fh:
                    self._write(fh)
                os._exit(0)
            finally:  # reached only by an exception, since os._exit does not return
                os._exit(1)
        return self

    def reap(self):
        if self._pid > 0:
            pid, self._pid = self._pid, -1
            if os.waitpid(pid, 0)[1] == 0:
                self._spill.seek(0)
                return self._spill
        return None

    def __exit__(self, *exc_info):
        self.reap()
        if self._spill is not None:
            self._spill.close()


def cmd_validate(cfg: RunConfig) -> int:
    params = cfg.params
    step = cfg.sample_step(params.period, params.period)
    thresholds = dict(VALIDATION_THRESHOLDS)
    pole = first_pole_time(params)
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
        def oracle_checks():
            return _mobius_vs_riccati(params, step), _mapped_vs_direct(params), _convergence_order(params)

        def write_checks(fh):
            # JSON writes each float as its repr, which round-trips exactly, and None as null
            fh.write(json.dumps(oracle_checks()).encode())

        # the two RK4 oracles run at once; a failed child's checks run again here, in turn
        with _Forked(write_checks) as child:
            errors = _validation_errors(params, step)
            spill = child.reap()
            checks = oracle_checks() if spill is None else json.loads(spill.read())
        errors["B"], errors["mapped"], order = checks
        report["divergence"] = None
        report["max_errors"] = errors
        report["convergence_order"] = order
        for key in ("Z", "G", "n", "B", "mapped"):
            if errors[key] is None:  # only B's oracle can stop short
                failures.append("B not checked: the Riccati RK4 oracle left the chart")
            elif errors[key] > thresholds[key]:
                failures.append(f"{key} error {errors[key]:.3e} exceeds {thresholds[key]:.1e}")
        if not (thresholds["order_low"] <= order <= thresholds["order_high"]):
            failures.append(f"convergence order {order:.3f} outside [3.7, 4.3]")
    report["failures"] = failures
    report["pass"] = not failures
    _write_chunks(cfg.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK if not failures else EXIT_VALIDATION


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
    for k in range(n_values):
        delta = cfg.delta_min + k * cfg.delta_step
        params = dataclasses.replace(cfg, delta=delta).params
        label = classify_metric(params, init.G)
        t_end = periods * params.period
        traj = propagate(swanson_hamiltonian(params), init, t_end, cfg.sample_step(params.period, t_end))
        # propagate keeps row 0, so the sample is never empty
        sample = traj.values[:: max(1, len(traj.values) // 200)]
        g_plus = metric_eigen(sample[:, 2], sample[:, 3], sample[:, 4])[0]
        diverged = traj.divergence_time is not None
        rows.append(
            ",".join(
                [
                    _fmt(delta),
                    label.value,
                    "1" if diverged else "0",
                    _fmt(traj.divergence_time) if diverged else "",
                    _fmt(g_plus.max()),
                ]
            )
        )
    _write_chunks(cfg.out, ["\n".join(rows) + "\n"])
    return EXIT_OK


# subcommand -> (handler, help line, the RunConfig fields it takes as flags and
# as config keys); every subcommand also takes --config
_COMMANDS = {
    "simulate": (cmd_simulate, "time series of centre, metric and norm",
                 ("omega0", "delta", "out", "step", "periods", "allow_divergence", "p0", "q0", "g0", "b0", "n0")),
    "classify": (cmd_classify, "divergence regions in the uncertainty plane",
                 ("omega0", "delta", "out", "re_min", "re_max", "im_min", "im_max", "resolution", "band")),
    "validate": (cmd_validate, "cross-check all computation routes", ("omega0", "delta", "out", "step")),
    "sweep": (cmd_sweep, "sweep the coupling and record outcomes",
              ("omega0", "out", "step", "periods", "delta_min", "delta_max", "delta_step", "p0", "q0", "g0")),
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
    for command, (_, help_line, names) in _COMMANDS.items():
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
    handler, _, names = _COMMANDS[args.pop("command")]
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


if __name__ == "__main__":
    sys.exit(main())

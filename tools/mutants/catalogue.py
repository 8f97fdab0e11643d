"""Mutation catalogue: small edits of swansim's sources that the tier-1 tests are expected to catch.

Each Mutant replaces one exact text (old, which occurs exactly once in file) by new.  killers are
the pytest node ids expected to fail on it, run first by tools/mutants/run.py; survives, set
instead of killers, says why no test can catch it.  tests/test_mutants.py checks that every old
text still occurs exactly once, so a change that moves the code updates its entries here.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...] = ()
    survives: str = ""


CLI, CLOSED_FORM, CSVROWS, GAUSSIAN, GEOMETRY, MODEL, ODE, STOPS = (
    f"src/swansim/{name}.py"
    for name in ("cli", "closed_form", "_csvrows", "gaussian", "geometry", "model", "ode", "_stops")
)

MUTANTS = (
    # the metriplectic right-hand side of the RK4 oracle
    Mutant(
        "rate-commutator-offdiagonal-sign",
        ODE,
        "a11 * gpp - a00 * gqq",
        "a11 * gpp + a00 * gqq",
        ("tests/test_ode.py",),
    ),
    Mutant(
        "rate-commutator-qq-entry",
        ODE,
        "two_a11 * gpq - two_a01 * gqq",
        "two_a11 * gpq - two_a00 * gqq",
        ("tests/test_ode.py",),
    ),
    Mutant(
        "rate-norm-trace-entry",
        ODE,
        "0.5 * (w00 + w11)",
        "0.5 * (w00 + w10)",
        ("tests/test_ode.py",),
    ),
    Mutant(
        "rate-norm-gamma-gradient",
        ODE,
        "P * gp + Q * gq",
        "P * gq + Q * gq",
        ("tests/test_ode.py",),
    ),
    Mutant(
        "rate-norm-constant-not-doubled",
        ODE,
        "2.0 * a11, 2.0 * float(model.const_gamma)",
        "2.0 * a11, float(model.const_gamma)",
        ("tests/test_ode.py",),
    ),
    Mutant(
        "rk4-block-size-ignored",
        ODE,
        "n_rows, block = n_steps + 1, BLOCK_ROWS",
        "n_rows, block = n_steps + 1, 2048",
        ("tests/test_cli.py::test_oracle_results_at_block_edges",),
    ),
    # the Riccati oracle's chart
    Mutant(
        "riccati-chart-lets-nan-through",
        GAUSSIAN,
        "if not abs(b) <= 1e12:",
        "if abs(b) > 1e12:",
        ("tests/test_gaussian.py::TestEvolveB::test_non_finite_riccati_state_leaves_the_chart",),
    ),
    Mutant(
        "riccati-stride-halved",
        CLI,
        "stride = max(1, n_steps // 100)",
        "stride = max(1, n_steps // 200)",
        ("tests/test_cli.py::test_mobius_vs_riccati_matches_whole_runs",),
    ),
    Mutant(
        "strided-riccati-samples-stop-early",
        CLI,
        "_riccati_steps(model, b0, t_end, step), 0, None, stride)",
        "_riccati_steps(model, b0, t_end, step), 0, n_steps + 1, stride)",
        ("tests/test_cli.py::test_strided_riccati_samples_consume_the_whole_run",),
    ),
    # the exact engine
    Mutant(
        "engine-block-size-ignored",
        GAUSSIAN,
        "n_rows, block = step_count(t_end, step) + 1, ode.BLOCK_ROWS",
        "n_rows, block = step_count(t_end, step) + 1, 2048",
        ("tests/test_cli.py::test_simulate_csv_bytes_in_blocks_of_1000",),
    ),
    Mutant(
        "engine-row-0-guard-dropped",
        GAUSSIAN,
        "bad[0] = False",
        "bad[0] = bad[0]",
        ("tests/test_gaussian.py::TestPropagate::test_centre_threshold_keeps_initial_row",),
    ),
    Mutant(
        "flow-period-halved",
        GAUSSIAN,
        "arg = mu * t",
        "arg = 0.5 * mu * t",
        ("tests/test_gaussian.py::TestPeriod",),
    ),
    Mutant(
        "centre-p-sign",
        GAUSSIAN,
        "return p.real + g_pq * p.imag + g_qq * q.imag,",
        "return p.real - g_pq * p.imag - g_qq * q.imag,",
        ("tests/test_gaussian.py::TestRotation",),
    ),
    Mutant(
        "centre-q-sign",
        GAUSSIAN,
        "q.real - g_pp * p.imag - g_pq * q.imag",
        "q.real + g_pp * p.imag + g_pq * q.imag",
        ("tests/test_gaussian.py::TestRotation",),
    ),
    Mutant(
        "norm-exponent-pq-sign",
        GAUSSIAN,
        "+ 2.0 * p.real * qi",
        "- 2.0 * p.real * qi",
        ("tests/test_gaussian.py::TestRotation",),
    ),
    Mutant(
        "phase-principal-angle",
        GAUSSIAN,
        "return np.unwrap(np.concatenate(([0.0], np.angle(den))))[1:]",
        "return np.angle(den)",
        ("tests/test_gaussian.py::TestPeriod::test_half_period_is_minus_i_times_parity",),
    ),
    Mutant(
        "phase-angle-sign",
        GAUSSIAN,
        "return np.unwrap(np.concatenate(([0.0], np.angle(den))))[1:]",
        "return -np.unwrap(np.concatenate(([0.0], np.angle(den))))[1:]",
        ("tests/test_gaussian.py",),
    ),
    # the ground state
    Mutant(
        "ground-b-cancelling-formula",
        MODEL,
        "im = (self.omega + d) / w0 if d > w0 else w0 / (self.omega - d)",
        "im = w0 / (self.omega - d)",
        ("tests/test_model.py::test_ground_b_is_the_fixed_point_at_strong_coupling",),
    ),
    Mutant(
        "ground-b-overflow-accepted",
        MODEL,
        "if not 0.0 < im < math.inf:",
        "if not 0.0 < im:",
        ("tests/test_model.py::test_ground_b_past_the_doubles_is_refused",),
    ),
    Mutant(
        "ground-b-underflow-accepted",
        MODEL,
        "if not 0.0 < im < math.inf:",
        "if not im < math.inf:",
        ("tests/test_model.py::test_ground_b_past_the_doubles_is_refused",),
    ),
    # the divergence law and its identity-seed case: closed_series' stretch and first_pole_time
    Mutant(
        "law-beta-sign",
        CLOSED_FORM,
        "beta = d * (d * y - 0.5 * w0 * excess)",
        "beta = -d * (d * y - 0.5 * w0 * excess)",
        ("tests/test_closed_form.py", "tests/test_geometry.py", "tests/test_stops.py"),
    ),
    Mutant(
        "law-unscaled",
        CLOSED_FORM,
        "e = -math.frexp(params.omega)[1]",
        "e = 0",
        ("tests/test_closed_form.py::TestDivergenceLaw::test_finite_at_the_top_of_the_accepted_range",),
    ),
    Mutant(
        "stretch-cosine-sign",
        CLOSED_FORM,
        "vers, sin2, dw = 1.0 - np.cos(two),",
        "vers, sin2, dw = 1.0 + np.cos(two),",
        ("tests/test_closed_form.py::TestStretchFactor",),
    ),
    Mutant(
        "first-pole-threshold-moved",
        CLOSED_FORM,
        "if alpha > r:",
        "if alpha > r * (1.0 - 1e-10):",
        ("tests/test_closed_form.py::TestFirstPoleTime::test_is_the_identity_case_of_the_law",),
    ),
    Mutant(
        "first-pole-time-off",
        CLOSED_FORM,
        "return math.acos(-alpha / r) / (2.0 * params.omega)",
        "return math.acos(-alpha / r) / (2.0 * params.omega) * (1.0 + 1e-12)",
        ("tests/test_closed_form.py::TestFirstPoleTime::test_is_the_identity_case_of_the_law",),
    ),
    # closed_series' shared terms and its survival exponent
    Mutant(
        "metric-coupling-over-omega",
        CLOSED_FORM,
        "d * w0 / (w * w)",
        "d * w0 / w",
        ("tests/test_closed_form.py::TestClosedSeries::test_matches_single_time_operations",),
    ),
    Mutant(
        "exponent-half-dropped",
        CLOSED_FORM,
        "ex = (0.5 * d * dd / (w * w))",
        "ex = (d * dd / (w * w))",
        ("tests/test_closed_form.py::TestSurvivalClosed::test_against_quadrature_of_rate",),
    ),
    Mutant(
        "shared-sine-sign",
        CLOSED_FORM,
        "np.sin(two), d * w0",
        "-np.sin(two), d * w0",
        ("tests/test_closed_form.py::TestClosedSeries::test_matches_single_time_operations",),
    ),
    # the conserved plane and the classifier's margin
    Mutant(
        "margin-times-omega0",
        GEOMETRY,
        "return im - d / params.omega0",
        "return im - d * params.omega0",
        ("tests/test_geometry.py::TestDivergenceLaw::test_law_holds_and_signs_the_classifier_margins",),
    ),
    Mutant(
        "plane-slope-denominator-sign",
        GEOMETRY,
        "den = params.omega0 + params.delta * pt0.x",
        "den = params.omega0 - params.delta * pt0.x",
        ("tests/test_geometry.py::TestPlaneSlope",),
    ),
    # classify's grid, streamed one block of rows at a time
    Mutant(
        "grid-collector-offset-dropped",
        GEOMETRY,
        "codes[lo : lo + len(block)] = block",
        "codes[: len(block)] = block",
        ("tests/test_geometry.py::TestRegionGrid::test_positive_coupling_horizontal_boundary",),
    ),
    Mutant(
        "grid-blocks-stop-one-short",
        GEOMETRY,
        "for lo in range(0, resolution, _GRID_BLOCK_ROWS))",
        "for lo in range(0, resolution - _GRID_BLOCK_ROWS, _GRID_BLOCK_ROWS))",
        ("tests/test_cli.py::test_classify_json_bytes",),
    ),
    Mutant(
        "label-first-comma-kept",
        CLI,
        'yield "[" + next(runs)[1:]',
        'yield "[" + next(runs)',
        ("tests/test_cli.py::test_label_chunks_match_json_dumps",),
    ),
    Mutant(
        "label-run-cap-ignored",
        CLI,
        "for lo in range(start, end, _LABEL_RUN_CAP):\n                yield item * min(_LABEL_RUN_CAP, end - lo)",
        "for lo in range(start, end, flat.size):\n                yield item * (end - lo)",
        ("tests/test_cli.py::test_label_chunks_match_json_dumps",),
    ),
    Mutant(
        "hamiltonian-coupling-sign",
        MODEL,
        "hess_gamma=np.array([[0.0, d], [d, 0.0]])",
        "hess_gamma=np.array([[0.0, -d], [-d, 0.0]])",
        ("tests/test_ode.py::TestRightHandSides",),
    ),
    # simulate's CSV cells written by numpy
    Mutant(
        "cell-ties-round-half-up",
        CSVROWS,
        "d += (frac > 0.5)",
        "d += (frac >= 0.5)",
        ("tests/test_csvrows.py::test_ties_round_half_to_even",),
    ),
    Mutant(
        "cell-exponent-check-dropped",
        CSVROWS,
        "ok &= (p > 1e16) | ((p == 1e16) & (e >= 0.0))",
        "ok = ok",
        ("tests/test_csvrows.py::test_powers_of_ten_and_their_neighbours",),
    ),
    Mutant(
        "cell-trailing-zero-run-dropped",
        CSVROWS,
        "keep[i] |= keep[i + 1]",
        "keep[i] = keep[i]",
        ("tests/test_csvrows.py::test_powers_of_ten_and_their_neighbours",),
    ),
    Mutant(
        "cell-point-always-written",
        CSVROWS,
        'cell[:, kk + 2] = np.where(group[:, kk + 1] == 0, 0, ord("."))',
        'cell[:, kk + 2] = ord(".")',
        ("tests/test_csvrows.py::test_ties_round_half_to_even",),
    ),
    Mutant(
        "cell-two-product-low-term-dropped",
        CSVROWS,
        "e += np.multiply(a_lo, _POW10_LO[j], out=a_lo)",
        "e = e",
        ("tests/test_csvrows.py::test_powers_of_ten_and_their_neighbours",),
    ),
    Mutant(
        "cell-exponent-unclipped",
        CSVROWS,
        "k = np.clip(np.floor(np.log10(a)), _FIX_MIN, _FIX_MAX).astype(np.int8)",
        "k = np.floor(np.log10(a)).astype(np.int8)",
        ("tests/test_csvrows.py::test_powers_of_ten_and_their_neighbours",),
    ),
    Mutant(
        "cell-digit-bound-dropped",
        CSVROWS,
        "ok &= d < _D_MAX",
        "ok = ok",
        ("tests/test_csvrows.py::test_a_log10_one_ulp_off_changes_no_byte",),
    ),
    Mutant(
        "cell-digits-left-binary",
        CSVROWS,
        'chars |= ord("0")',
        "chars = chars",
        ("tests/test_csvrows.py::test_ties_round_half_to_even",),
    ),
    Mutant(
        "cell-template-line-dropped",
        CSVROWS,
        'lines[r] = np.frombuffer(line.ljust(CELLS * _WIDTH, b"\\0"), dtype=np.uint8)',
        "pass",
        ("tests/test_csvrows.py::test_cells_outside_the_fast_path",),
    ),
    # the proof that a bounded run cannot stop
    Mutant(
        "law-gap-flipped",
        STOPS,
        "if not alpha - r > MARGIN * (abs(alpha) + r):",
        "if not alpha + r > MARGIN * (abs(alpha) + r):",
        ("tests/test_stops.py",),
    ),
    Mutant(
        "law-margin-dropped",
        STOPS,
        "if not alpha - r > MARGIN * (abs(alpha) + r):",
        "if not alpha - r > 0.0:",
        ("tests/test_stops.py::test_runs_near_a_margin_take_the_scan",),
    ),
    Mutant(
        "g-plus-margin-dropped",
        STOPS,
        "return g_plus <= limit and centre <= limit",
        "return g_plus <= BLOWUP_THRESHOLD and centre <= limit",
        ("tests/test_stops.py::test_runs_near_a_margin_take_the_scan",),
    ),
    Mutant(
        "centre-margin-dropped",
        STOPS,
        "return g_plus <= limit and centre <= limit",
        "return g_plus <= limit and centre <= BLOWUP_THRESHOLD",
        survives="implied: within the g_plus and ln n limits a proved run's centre bound is at most 8.4e3",
    ),
    Mutant(
        "log-n-cap-margin-dropped",
        STOPS,
        "LOG_N_CAP = 0.5 * math.log(sys.float_info.max)",
        "LOG_N_CAP = math.log(sys.float_info.max)",
        ("tests/test_stops.py::test_runs_near_a_margin_take_the_scan",),
    ),
    Mutant(
        "log-n-without-n0",
        STOPS,
        "log_n + max(0.0, math.log(init.n)) <= LOG_N_CAP",
        "log_n <= LOG_N_CAP",
        ("tests/test_stops.py::test_runs_near_a_margin_take_the_scan",),
    ),
    Mutant(
        "g-plus-without-its-one",
        STOPS,
        "g_plus = (1.0 + b0.real * b0.real + b0.imag * b0.imag) / gap",
        "g_plus = (b0.real * b0.real + b0.imag * b0.imag) / gap",
        ("tests/test_stops.py",),
    ),
    Mutant(
        "g-plus-doubled",
        STOPS,
        "g_plus = (1.0 + b0.real * b0.real + b0.imag * b0.imag) / gap",
        "g_plus = 2.0 * (1.0 + b0.real * b0.real + b0.imag * b0.imag) / gap",
        ("tests/test_stops.py",),
    ),
    Mutant(
        "g-plus-halved",
        STOPS,
        "g_plus = (1.0 + b0.real * b0.real + b0.imag * b0.imag) / gap",
        "g_plus = 0.5 * (1.0 + b0.real * b0.real + b0.imag * b0.imag) / gap",
        ("tests/test_stops.py",),
    ),
    Mutant(
        "centre-bound-without-g-plus",
        STOPS,
        "r0 * (1.0 + g_plus), ",
        "r0, ",
        ("tests/test_stops.py",),
    ),
    Mutant(
        "log-n-bound-without-centre",
        STOPS,
        "r0 * r0 * (0.5 + g_plus) + 0.5 * math.log(b0.imag / gap)",
        "0.5 * math.log(b0.imag / gap)",
        ("tests/test_stops.py",),
    ),
    # the value types: their constructors' checks, and the value semantics of model._Value
    Mutant(
        "metric-zero-g-pp-accepted",
        CLOSED_FORM,
        "if self.g_pp <= 0 or self.g_qq <= 0:",
        "if self.g_pp < 0 or self.g_qq <= 0:",
        ("tests/test_values.py::test_metric_checks",),
    ),
    Mutant(
        "metric-zero-g-qq-accepted",
        CLOSED_FORM,
        "if self.g_pp <= 0 or self.g_qq <= 0:",
        "if self.g_pp <= 0 or self.g_qq < 0:",
        ("tests/test_values.py::test_metric_checks",),
    ),
    Mutant(
        "params-zero-omega0-accepted",
        MODEL,
        "if self.omega0 <= 0:",
        "if self.omega0 < 0:",
        ("tests/test_values.py::test_swanson_params_checks",),
    ),
    Mutant(
        "real-state-one-finite-coordinate-enough",
        CLOSED_FORM,
        "math.isfinite(self.P) and math.isfinite(self.Q)",
        "math.isfinite(self.P) or math.isfinite(self.Q)",
        ("tests/test_values.py::test_real_state_checks",),
    ),
    Mutant(
        "survival-zero-accepted",
        ODE,
        "math.isfinite(self.n) and self.n > 0",
        "math.isfinite(self.n) and self.n >= 0",
        ("tests/test_values.py::test_metriplectic_state_checks",),
    ),
    Mutant(
        "hyperboloid-zero-z-accepted",
        GEOMETRY,
        "if self.z <= 0:",
        "if self.z < 0:",
        ("tests/test_values.py::test_hyperboloid_point_checks",),
    ),
    Mutant(
        "hamiltonian-gamma-unchecked",
        MODEL,
        '_as_symmetric(hess_gamma, "hess_gamma")',
        "hess_gamma",
        ("tests/test_values.py::test_quadratic_hamiltonian_checks",),
    ),
    Mutant(
        "value-equal-across-types",
        MODEL,
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, _Value):",
        ("tests/test_values.py::test_unequal_values",),
    ),
    Mutant(
        "value-hash-of-type-only",
        MODEL,
        "return hash(self._values())",
        "return hash(type(self))",
        ("tests/test_values.py::test_frozen_types_compare_and_hash_by_value",),
    ),
    Mutant(
        "value-frozen-assignment-allowed",
        MODEL,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ("tests/test_values.py::test_frozen_types_refuse_assignment",),
    ),
    Mutant(
        "value-class-default-ignored",
        MODEL,
        "values[name] if name in values else getattr(cls, name)",
        "values.get(name)",
        ("tests/test_values.py::test_gaussian_state_by_position_and_name_with_default",),
    ),
    Mutant(
        "sweep-coupling-not-swept",
        CLI,
        "params = _params(cfg.omega0, delta)",
        "params = _params(cfg.omega0, cfg.delta)",
        ("tests/test_cli.py::test_sweep_max_g_plus_is_the_largest_sampled_eigenvalue",),
    ),
    Mutant(
        "labels-unquoted",
        CLI,
        """_QUOTED_LABELS = tuple(f'"{label.value}"' for label in RegionLabel)""",
        "_QUOTED_LABELS = tuple(label.value for label in RegionLabel)",
        ("tests/test_cli.py::test_classify_json_bytes",),
    ),
    # test gaps closed after a survey of random operator mutants
    Mutant(
        "real-axis-normalizable",
        GAUSSIAN,
        "return b.imag > 0.0",
        "return b.imag >= 0.0",
        ("tests/test_gaussian.py::TestMetricFromB::test_rejects_the_real_axis",),
    ),
    Mutant(
        "grid-im-width-as-sum",
        GEOMETRY,
        "math.isfinite(im_hi - im_lo)",
        "math.isfinite(im_hi + im_lo)",
        ("tests/test_geometry.py::TestRegionGrid::test_accepts_finite_ranges_near_the_largest_double",),
    ),
    Mutant(
        "symmetry-tolerance-divided-by-scale",
        MODEL,
        "1e-12 * max(1.0, np.abs(a).max())",
        "1e-12 / max(1.0, np.abs(a).max())",
        ("tests/test_values.py::test_quadratic_hamiltonian_symmetrizes_within_tolerance",),
    ),
    Mutant(
        "pole-tolerance-divided-by-b0",
        GAUSSIAN,
        "POLE_TOL * max(1.0, abs(state.b))",
        "POLE_TOL / max(1.0, abs(state.b))",
        ("tests/test_gaussian.py::TestPhaseAndNorm::test_pole_tolerance_grows_with_b0",),
    ),
    # the engine modules cli binds per command
    Mutant(
        "binder-overwrites-rebound-names",
        CLI,
        "globals().setdefault(name, getattr(home, name))",
        "globals()[name] = getattr(home, name)",
        ("tests/test_cli.py::test_commands_call_the_functions_rebound_on_cli",),
    ),
    Mutant(
        "classify-binds-the-engine",
        CLI,
        '"im_max", "resolution", "band"), ()),',
        '"im_max", "resolution", "band"), tuple(_ENGINE)),',
        ("tests/test_cli.py::test_only_classify_skips_the_engine",
         "tests/test_cli.py::test_process_entry_imports_no_engine_for_help_unknown_or_classify"),
    ),
)

import math
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

import odfprobe.readout as readout
from odfprobe import fitting
from odfprobe.crystal import TwoIonCrystal
from odfprobe.readout import (CalibrationSet, ConvergenceError, FitError, FockCutoffError,
                              MotionalDistribution, RabiSignal, ReadoutPipeline,
                              ShiftEstimate, build_calibration, extract_shift, fit_rabi,
                              iterate_partner_correction, sideband_rabi_frequencies,
                              synthesize_bsb_signal)

from oracles import (bsb_signal, scipy_bounded_minimum, scipy_curve_fit, scipy_pchip,
                     template_curves)

TIMES = np.linspace(0.0, 120e-6, 61)
OMEGA0 = 2.0 * math.pi * 50e3
ETA = 0.1


class TestMotionalDistribution:
    def test_coherent_mean(self):
        dist = MotionalDistribution.coherent(8.5)
        assert np.arange(len(dist.p_n)) @ dist.p_n == pytest.approx(8.5, rel=1e-6)

    def test_ground_state(self):
        dist = MotionalDistribution.coherent(0.0)
        assert dist.p_n[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MotionalDistribution(np.array([0.5, 0.4]))  # sums to 0.9
        with pytest.raises(ValueError):
            MotionalDistribution(np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            MotionalDistribution.coherent(-1.0)


class TestLogFactorials:
    @pytest.mark.parametrize("n", [0, 1, 2, 12, 13, 999, 1000, 1600])
    def test_bit_equal_to_gammaln(self, n):
        expected = gammaln(np.arange(n + 1) + 1.0)
        assert np.array_equal(readout._log_factorials()[:n + 1], expected)

    def test_one_read_only_table_up_to_max_fock(self):
        table = readout._log_factorials()
        assert np.array_equal(table, gammaln(np.arange(readout.MAX_FOCK + 1) + 1.0))
        assert not table.flags.writeable
        assert readout._log_factorials() is table

    # n_cut: the level the distribution ends at, None for _coherent_cut(n_mean)
    @pytest.mark.parametrize("n_mean, n_cut", [
        (0.3, None), (12.5, None), (400.0, None),
        (1400.0, 1600),     # truncated at readout.MAX_FOCK
    ])
    def test_coherent_weights_match_gammaln(self, n_mean, n_cut):
        dist = MotionalDistribution.coherent(n_mean)
        n = np.arange((readout._coherent_cut(n_mean) if n_cut is None else n_cut) + 1)
        expected = np.exp(-n_mean + n * math.log(n_mean) - gammaln(n + 1.0))
        assert np.array_equal(dist.p_n, expected)

    def test_coherent_state_past_max_fock_refused(self):
        # _coherent_cut(1500) = 1912; the 1601 levels kept do not sum to 1
        with pytest.raises(ValueError, match="populations must sum to 1"):
            MotionalDistribution.coherent(1500.0)


class TestSynthesis:
    def test_ground_state_pure_sine(self):
        dist = MotionalDistribution.coherent(0.0)
        signal = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES)
        expected = np.sin(0.5 * OMEGA0 * ETA * TIMES) ** 2
        assert np.allclose(signal.p, expected, atol=1e-12)

    def test_decoherence_limits(self):
        dist = MotionalDistribution.coherent(0.0)
        signal = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES,
                                       decoherence_tau_s=20e-6)
        # long-time limit decays toward 1/2
        assert abs(signal.p[-1] - 0.5) < 0.01

    def test_flopping_rate_monotone_in_amplitude(self):
        rates = []
        for n_mean in (1.0, 4.0, 16.0, 64.0):
            dist = MotionalDistribution.coherent(n_mean)
            signal = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES)
            rates.append(fit_rabi(signal))
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_first_order_lamb_dicke_rates(self):
        rates = sideband_rabi_frequencies(4, ETA, OMEGA0)
        assert rates == pytest.approx(OMEGA0 * ETA * np.sqrt(np.arange(1, 5)))

    def test_noise_is_seeded_and_binomial(self):
        dist = MotionalDistribution.coherent(2.0)
        a = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES, shots=20, seed=5)
        b = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES, shots=20, seed=5)
        c = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES, shots=20, seed=6)
        assert np.array_equal(a.p, b.p)
        assert not np.array_equal(a.p, c.p)
        assert np.all(np.isin(np.round(a.p * 20), np.arange(21)))

    def test_noiseless_matches_analytic(self):
        dist = MotionalDistribution.coherent(5.0)
        sig = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES)
        assert sig.shots is None
        assert np.array_equal(sig.p, bsb_signal(dist, ETA, OMEGA0, TIMES))

    def test_eta_validation(self):
        dist = MotionalDistribution.coherent(1.0)
        with pytest.raises(ValueError):
            synthesize_bsb_signal(dist, 0.8, OMEGA0, TIMES)


class TestSineTable:
    """The synthesis reads sin^2(Omega_n t / 2) from one table per (times, eta,
    omega0) and gives the per-call sine matrix of ``tests/oracles.py`` bit for
    bit, however the table grew."""

    @pytest.fixture(autouse=True)
    def empty_tables(self, monkeypatch):
        monkeypatch.setattr(readout, "_RABI_SINES", {})

    @staticmethod
    def assert_signals_match(pipeline, shifts, seed=None):
        omega0 = 2.0 * math.pi * pipeline.carrier_rabi_hz
        for k, shift in enumerate(shifts):
            dist = pipeline.distribution(shift)
            expected = bsb_signal(dist, pipeline.eta, omega0, pipeline.probe_times_s,
                                  pipeline.decoherence_tau_s)
            assert np.array_equal(pipeline.signal(shift).p, expected), shift
            if seed is not None:
                noisy = pipeline.signal(shift, shots=20, seed=seed + k)
                counts = np.random.default_rng(seed + k).binomial(20, expected)
                assert np.array_equal(noisy.p, counts / 20), shift

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "random"])
    def test_seeded_shifts_in_any_order(self, pipeline, order):
        shifts = np.random.default_rng(3001).uniform(0.0, 9300.0, 150)
        shifts = {"increasing": np.sort(shifts), "decreasing": np.sort(shifts)[::-1],
                  "random": shifts}[order]
        self.assert_signals_match(pipeline, [0.0, *shifts, 9300.0], seed=30)
        (table,) = readout._RABI_SINES.values()
        # exactly as wide as the largest cutoff asked, and never written again
        assert table.shape == (61, readout.MAX_FOCK + 1)
        assert not table.flags.writeable

    def test_grows_to_exactly_the_widest_call(self, pipeline):
        widths = []
        for shift in (300.0, 1500.0, 1000.0, 4000.0):
            self.assert_signals_match(pipeline, [shift])
            (table,) = readout._RABI_SINES.values()
            widths.append(table.shape[1])
        cut = [len(pipeline.distribution(s).p_n) for s in (300.0, 1500.0, 4000.0)]
        assert widths == [cut[0], cut[1], cut[1], cut[2]]

    def test_grids_and_etas_keep_their_own_tables(self, pipeline):
        pipelines = [pipeline, replace(pipeline, eta=0.12),
                     replace(pipeline, probe_times_s=np.linspace(5e-6, 150e-6, 40)),
                     replace(pipeline, eta=0.12, probe_times_s=TIMES * 1.01)]
        shifts = np.random.default_rng(3002).uniform(0.0, 6000.0, 20)
        for shift in shifts:
            for p in pipelines:
                self.assert_signals_match(p, [shift])
        assert len(readout._RABI_SINES) == 4

    def test_at_most_eight_tables(self, pipeline):
        pipelines = [replace(pipeline, eta=0.1 + 0.01 * k) for k in range(10)]
        for p in pipelines + pipelines[::-1]:
            self.assert_signals_match(p, [2500.0])
            assert len(readout._RABI_SINES) <= 8

    def test_invalid_eta_refused_with_a_warm_table(self):
        dist = MotionalDistribution.coherent(40.0)
        synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES)
        for eta in (0.8, 0.0, math.nan):
            with pytest.raises(ValueError, match="Lamb-Dicke"):
                synthesize_bsb_signal(dist, eta, OMEGA0, TIMES)
        with pytest.raises(ValueError, match="carrier"):
            synthesize_bsb_signal(dist, ETA, -OMEGA0, TIMES)
        assert len(readout._RABI_SINES) == 1


class TestFitRabi:
    def test_recovers_ground_state_frequency(self):
        dist = MotionalDistribution.coherent(0.0)
        signal = synthesize_bsb_signal(dist, ETA, OMEGA0, TIMES)
        assert fit_rabi(signal) == pytest.approx(OMEGA0 * ETA / (2.0 * math.pi), rel=1e-3)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match=">= 10"):
            fit_rabi(RabiSignal(TIMES[:5], np.zeros(5)))

    def test_non_finite_signal_rejected(self):
        # NaN slips through a [0, 1] range check; it must not reach a fit
        p = np.full(len(TIMES), 0.5)
        p[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RabiSignal(TIMES, p, shots=20)
        times = TIMES.copy()
        times[-1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            RabiSignal(times, np.full(len(TIMES), 0.5))


def recorded_fits(monkeypatch, signals):
    """(args, kwargs, result) of each ``fitting.curve_fit`` call that
    ``fit_rabi`` makes for ``signals``."""
    calls = []
    transcription = fitting.curve_fit

    def recording(*args, **kwargs):
        result = transcription(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(fitting, "curve_fit", recording)
    for signal in signals:
        fit_rabi(signal)
    return calls


class TestFitTranscription:
    """``fitting.curve_fit`` gives scipy's popt, bit for bit, on the fits
    ``fit_rabi`` makes."""

    @staticmethod
    def assert_equal_to_scipy(calls):
        for args, kwargs, popt in calls:
            expected_popt, _ = scipy_curve_fit(*args, **kwargs)
            assert np.array_equal(popt, expected_popt)

    @pytest.mark.parametrize("shifts, partner", [
        (np.geomspace(150.0, 5200.0, 12), 0.0),
        (np.linspace(800.0, 4600.0, 6), 0.0),
        (np.linspace(800.0, 4600.0, 6), 0.185),
        ([800.0, 2700.0, 4600.0], 0.0),
    ], ids=["geomspace 12", "linspace 6", "linspace 6 partner 0.185", "three shifts"])
    def test_calibration_templates(self, pipeline, monkeypatch, shifts, partner):
        templates = [pipeline.signal(s * (1.0 + partner)) for s in shifts]
        calls = recorded_fits(monkeypatch, templates)
        assert len(calls) == len(templates)
        self.assert_equal_to_scipy(calls)

    @pytest.mark.parametrize("shots", [20, 400])
    def test_noisy_signals(self, pipeline, monkeypatch, shots):
        rng = np.random.default_rng(29)
        signals = [pipeline.signal(float(rng.uniform(0.0, 6000.0)), shots=shots, seed=seed)
                   for seed in range(40)]
        self.assert_equal_to_scipy(recorded_fits(monkeypatch, signals))

    def test_flat_signal(self, monkeypatch):
        rng = np.random.default_rng(1)
        p = np.clip(0.02 + 0.01 * rng.standard_normal(len(TIMES)), 0.0, 1.0)
        self.assert_equal_to_scipy(recorded_fits(monkeypatch, [RabiSignal(TIMES, p, shots=400)]))

    def test_evaluation_limit_raises_fit_error(self, pipeline, monkeypatch):
        # stopped after 3 evaluations, the fit has not converged: the
        # transcription raises what scipy raises, and fit_rabi a FitError
        transcription = fitting.curve_fit
        messages = []

        def limited(*args, **kwargs):
            kwargs["max_nfev"] = 3
            for fit in (scipy_curve_fit, transcription):
                with pytest.raises(RuntimeError) as stopped:
                    fit(*args, **kwargs)
                messages.append(str(stopped.value))
            raise stopped.value

        monkeypatch.setattr(fitting, "curve_fit", limited)
        with pytest.raises(FitError, match="did not converge"):
            fit_rabi(pipeline.signal(2700.0))
        assert messages == ["Optimal parameters not found: The maximum number of "
                            "function evaluations is exceeded."] * 2

    @staticmethod
    def cubic(t, a, b, c, d):
        return a + b * t + c * t**2 + d * t**3

    def test_start_on_a_bound(self):
        # the start is first moved strictly inside the bounds, as scipy moves it
        x = np.linspace(0.0, 3.0, 7)
        y = np.array([0.1, 0.7, 0.4, 0.9, 0.3, 0.8, 1.2])
        bounds = ([0.0, -10.0, -10.0, -10.0], [10.0] * 4)
        popt = fitting.curve_fit(self.cubic, x, y, p0=np.zeros(4), bounds=bounds, max_nfev=400)
        expected_popt, _ = scipy_curve_fit(self.cubic, x, y, p0=np.zeros(4),
                                           bounds=bounds, max_nfev=400)
        assert np.array_equal(popt, expected_popt)


def frequency_nodes(cal):
    """The (shift, frequency) nodes of the calibration's frequency PCHIP."""
    pipeline = cal.pipeline
    return (np.concatenate(([0.0], cal.shifts_hz)),
            np.concatenate(([pipeline.carrier_rabi_hz * pipeline.eta],
                            cal.template_frequencies_hz)))


class TestPchipTranscription:
    """``fitting.pchip_coefficients`` gives scipy's coefficients, and
    ``readout`` sums them to scipy's values and edge slopes, bit for bit."""

    @staticmethod
    def assert_equal_to_scipy(x, y):
        ours, theirs = readout.PchipInterpolator(x, y), scipy_pchip(x, y)
        assert np.array_equal(ours, theirs.c)
        nodes = np.asarray(x, dtype=float)
        f_edge, df_edge = readout._pchip_edges(nodes.tolist(), ours.T.tolist())
        assert f_edge == theirs(nodes[[0, -1]]).tolist()
        assert df_edge == theirs.derivative()(nodes[[0, -1]]).tolist()
        return ours, theirs

    @pytest.mark.parametrize("crystal_periods, shifts, partner, shots", [
        (19, np.geomspace(150.0, 5200.0, 12), 0.0, None),
        (19, np.linspace(800.0, 4600.0, 6), 0.185, None),
        (19, np.linspace(800.0, 4600.0, 6), 0.0, 20),
        (20, np.geomspace(150.0, 5200.0, 12), 0.0, None),
        (20, np.linspace(800.0, 4600.0, 6), 0.0, 20),
    ], ids=["geomspace 12", "linspace 6 partner 0.185", "linspace 6 20 shots",
            "28/40/20 geomspace 12", "28/40/20 linspace 6 20 shots"])
    def test_benchmark_calibrations(self, crystal_periods, shifts, partner, shots):
        pipeline = ReadoutPipeline(TwoIonCrystal.from_lattice_periods(28, 40, crystal_periods,
                                                                      789.0))
        cal = build_calibration(shifts, pipeline, true_partner_fraction=partner,
                                shots=shots, seed=7)
        s, f = frequency_nodes(cal)
        _, theirs = self.assert_equal_to_scipy(s, f)
        # the layout interpolate reads holds scipy's numbers
        layout = cal._layout
        assert layout[1] == theirs.c.T.tolist()
        assert layout[3] == theirs(s[[0, -1]]).tolist()
        assert layout[4] == theirs.derivative()(s[[0, -1]]).tolist()

    @pytest.mark.parametrize("x, y, start_slope", [
        ([0.0, 2.0], [1.0, -3.0], -2.0),
        ([0.0, 1.0, 2.5, 3.0], [0.0, 1.0, 2.5, 2.6], None),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0], None),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], None),
        ([0.0, 1.0, 2.0], [0.0, 0.1, 3.0], 0.0),
        ([0.0, 1.0, 2.0], [0.0, 1.0, -4.0], 3.0),
        ([0.0, 1.0, 3.0], [0.0, 1.0, 0.5], 4.25 / 3.0),
    ], ids=["two nodes", "harmonic mean", "flat interval", "sign changes",
            "end slope against its secant", "end slope limited to 3 m", "end slope at a turn"])
    def test_slope_branches(self, x, y, start_slope):
        ours, _ = self.assert_equal_to_scipy(x, y)
        if start_slope is not None:
            _, (slope, _) = readout._pchip_edges(x, ours.T.tolist())
            assert slope == pytest.approx(start_slope, rel=1e-15)

    def test_seeded_node_sets(self):
        rng = np.random.default_rng(2029)
        for k in range(300):
            n = int(rng.integers(2, 10))
            x = np.cumsum(rng.uniform(0.1, 3.0, n)) * rng.choice([1.0, 1e3])
            y = [rng.normal(size=n), np.cumsum(rng.uniform(0.0, 1.0, n)),
                 rng.integers(-2, 3, n).astype(float)][k % 3]
            ours, theirs = self.assert_equal_to_scipy(x, y)
            # interpolate extrapolates by itself: the sum is asked inside only
            points = np.concatenate([x, rng.uniform(x[0], x[-1], 8)]).tolist()
            values = [readout._pchip(x.tolist(), ours.T.tolist(), point) for point in points]
            assert values == theirs(points).tolist()


class TestCalibration:
    def test_default_six_shifts(self, six_shift_calibration):
        assert len(six_shift_calibration.shifts_hz) == 6
        assert six_shift_calibration.shifts_hz[0] == 800.0
        assert six_shift_calibration.shifts_hz[-1] == 4600.0

    def test_template_frequencies_strictly_ordered(self, six_shift_calibration):
        freqs = six_shift_calibration.template_frequencies_hz
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_single_shift_rejected(self, pipeline):
        with pytest.raises(ValueError, match="at least 3"):
            build_calibration([1000.0], pipeline)

    def test_unsorted_shifts_rejected(self, pipeline):
        signal = pipeline.signal(1000.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            CalibrationSet((1000.0, 1000.0, 2000.0), (signal,) * 3, pipeline)

    @pytest.mark.parametrize("times", [np.linspace(0.0, 60e-6, 61),
                                       np.linspace(0.0, 120e-6, 41)])
    def test_templates_off_the_probe_grid_rejected(self, pipeline, times):
        # same length on another span once extracted 2000 Hz as 4045.6 Hz;
        # another length failed to broadcast
        other = replace(pipeline, probe_times_s=times)
        shifts = (800.0, 2000.0, 3500.0)
        templates = tuple(other.signal(s) for s in shifts)
        with pytest.raises(ValueError, match=r"template 0 \(800 Hz\)"):
            CalibrationSet(shifts, templates, pipeline)

    @pytest.mark.parametrize("index, value", [(0, math.nan), (1, math.nan), (2, math.nan),
                                              (2, math.inf), (0, -math.inf)])
    def test_non_finite_shifts_rejected(self, pipeline, index, value):
        # they once constructed, and the first extraction failed inside scipy
        shifts = [800.0, 2000.0, 3500.0]
        templates = tuple(pipeline.signal(s) for s in shifts)
        shifts[index] = value
        with pytest.raises(ValueError,
                           match=rf"calibration shift {index} \({value:g} Hz\) is not finite"):
            CalibrationSet(tuple(shifts), templates, pipeline)


def scaled(cal, factor):
    """The calibration's templates attributed to shifts scaled by ``factor``,
    as a partner fraction of factor - 1 attributes them."""
    return CalibrationSet(tuple(s * factor for s in cal.shifts_hz), cal.templates,
                          cal.pipeline)


def reference_curve(cal, shift_hz):
    """Per-point reference for the template family: a fresh frequency PCHIP
    for the one shift, then ``np.interp`` of the two bracketing curves."""
    pipeline = cal.pipeline
    # the ground-state flop anchors the family at zero shift
    zero_frequency = pipeline.carrier_rabi_hz * pipeline.eta
    s = np.array([0.0, *cal.shifts_hz])
    f = np.array([zero_frequency, *cal.template_frequencies_hz])
    curves = [pipeline.signal(0.0).p] + [tpl.p for tpl in cal.templates]
    pchip = PchipInterpolator(s, f, extrapolate=False)
    if s[0] <= shift_hz <= s[-1]:
        f_target = float(pchip(shift_hz))
    else:
        edge = s[0] if shift_hz < s[0] else s[-1]
        f_target = float(pchip(edge)) + float(pchip.derivative()(edge)) * (shift_hz - edge)
        f_target = max(f_target, 0.02 * f[f > 0.0].min())
    hi = min(max(int(np.searchsorted(s, shift_hz)), 1), len(s) - 1)
    lo = hi - 1
    t = cal.pipeline.probe_times_s
    below = np.interp(t * f_target / f[lo], t, curves[lo])
    above = np.interp(t * f_target / f[hi], t, curves[hi])
    w = (shift_hz - s[lo]) / (s[hi] - s[lo])
    return np.clip((1.0 - w) * below + w * above, 0.0, 1.0)


class TestTemplateFamily:
    def test_batch_matches_per_point_reference(self, six_shift_calibration):
        anchored = scaled(six_shift_calibration, 1.1)
        nodes = list(anchored.shifts_hz)
        shifts = [0.0, 350.0] + nodes + [1234.5, 3999.0, 5200.0, 6900.0, 9000.0]
        batch = template_curves(anchored, shifts)
        assert batch.shape == (len(shifts), len(anchored.pipeline.probe_times_s))
        for row, shift in zip(batch, shifts):
            assert np.max(np.abs(row - reference_curve(anchored, shift))) <= 1e-12
            assert np.array_equal(anchored.interpolate(shift), row)

    def test_below_the_zero_anchor(self, six_shift_calibration):
        cal = six_shift_calibration
        # -20 kHz extrapolates below the frequency floor
        shifts = [-20e3, -1000.0, -5.0, 0.0, 5.0, 650.0, 800.0, 4600.0, 5500.0]
        for row, shift in zip(map(cal.interpolate, shifts), shifts):
            assert np.max(np.abs(row - reference_curve(cal, shift))) <= 1e-12

    def test_time_grid_not_starting_at_zero(self, pipeline):
        # slower-aligned curves then sample before the first probe time,
        # where np.interp holds the first value
        late = replace(pipeline, probe_times_s=np.linspace(10e-6, 120e-6, 45))
        cal = build_calibration([800.0, 2000.0, 3500.0, 4600.0], late)
        shifts = [100.0, 900.0, 2700.0, 4600.0, 6000.0]
        for row, shift in zip(map(cal.interpolate, shifts), shifts):
            assert np.max(np.abs(row - reference_curve(cal, shift))) <= 1e-12

    def test_interpolant_built_once_per_instance(self, six_shift_calibration,
                                                 monkeypatch):
        builds = []
        pchip = readout.PchipInterpolator

        def counting(*args, **kwargs):
            builds.append(args)
            return pchip(*args, **kwargs)

        monkeypatch.setattr(readout, "PchipInterpolator", counting)
        cal = scaled(six_shift_calibration, 1.05)
        for shift in (900.0, 2500.0, 7000.0):
            cal.interpolate(shift)
        # the 600-shift grid goes through interpolate and the same interpolant
        cal._chi2_grid
        assert len(builds) == 1

    @pytest.mark.parametrize("partner", [None, 0.185], ids=["wide", "partner 0.185"])
    def test_one_shift_path_equals_the_grid_path(self, pipeline, wide_calibration,
                                                 partner):
        # interpolate evaluates one shift on scalars, the reference many at
        # once on arrays; they must not drift apart anywhere extract_shift
        # may ask, both extrapolation sides included
        cal = wide_calibration if partner is None else build_calibration(
            np.linspace(800.0, 4600.0, 6), pipeline, true_partner_fraction=partner)
        top = cal.shifts_hz[-1]
        rng = np.random.default_rng(2611)
        shifts = [*rng.uniform(0.0, 1.5 * top, 5000), *cal.shifts_hz, 0.0, 1e-3,
                  np.nextafter(top, np.inf), 1.5 * top, 3.0 * top,
                  # and below the zero anchor: the partner calibration's
                  # extrapolated frequency meets its floor below about -307 Hz
                  -1e-3, -5.0, -310.0, -600.0, -20e3]
        for shift, row in zip(shifts, template_curves(cal, shifts)):
            assert np.array_equal(cal.interpolate(shift), row), shift


class TestExtraction:
    def test_template_fixed_point(self, six_shift_calibration):
        for index in (0, 2, 5):
            template = six_shift_calibration.templates[index]
            est = extract_shift(template, six_shift_calibration)
            truth = six_shift_calibration.shifts_hz[index]
            assert est.shift_hz == pytest.approx(truth, rel=0.01)

    def test_off_node_recovery(self, pipeline, six_shift_calibration):
        est = extract_shift(pipeline.signal(2000.0), six_shift_calibration)
        assert est.shift_hz == pytest.approx(2000.0, rel=0.05)
        assert not est.extrapolated

    def test_extrapolation_flagged(self, pipeline, six_shift_calibration):
        est = extract_shift(pipeline.signal(300.0), six_shift_calibration)
        assert est.extrapolated

    def test_wrong_time_grid_rejected(self, pipeline, six_shift_calibration):
        other = replace(pipeline, probe_times_s=np.linspace(0, 50e-6, 20))
        with pytest.raises(ValueError, match="time grid"):
            extract_shift(other.signal(1000.0), six_shift_calibration)

    def test_pure_noise_uninformative(self, six_shift_calibration, pipeline):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.0, 1.0, size=len(pipeline.probe_times_s))
        est = extract_shift(RabiSignal(pipeline.probe_times_s, p, shots=20),
                            six_shift_calibration)
        assert est.uninformative or est.sigma_hz > 500.0

    def test_sigma_shrinks_with_shots(self, pipeline, six_shift_calibration):
        sigmas = {}
        for shots in (20, 80, 320):
            values = []
            for seed in range(6):
                signal = pipeline.signal(2000.0, shots=shots, seed=seed)
                values.append(extract_shift(signal, six_shift_calibration).sigma_hz)
            sigmas[shots] = np.mean(values)
        assert sigmas[80] / sigmas[320] == pytest.approx(2.0, rel=0.2)
        assert sigmas[20] / sigmas[80] == pytest.approx(2.0, rel=0.2)

    def test_monotone_extraction_over_calibrated_range(self, pipeline,
                                                       six_shift_calibration):
        estimates = [extract_shift(pipeline.signal(s), six_shift_calibration).shift_hz
                     for s in np.linspace(900.0, 4500.0, 7)]
        assert all(b > a for a, b in zip(estimates, estimates[1:]))

    # (true shift, seed, extracted shift, sigma) recorded from the per-shift
    # interpolation the batched family replaced; the last one extrapolates
    RECORDED = [
        (400.0, 11, 394.5186111731763, 3.4159326185065617),
        (1200.0, 12, 1193.5249773045366, 11.21821961764993),
        (2500.0, 13, 2497.432937546156, 11.224217441549792),
        (4000.0, 14, 4009.476464093663, 11.469336273244307),
        (6000.0, 15, 5978.338721355677, 9.980906914313422),
    ]

    @pytest.mark.parametrize("truth, seed, shift, sigma", RECORDED)
    def test_recorded_extractions_reproduced(self, pipeline, wide_calibration,
                                             truth, seed, shift, sigma):
        est = extract_shift(pipeline.signal(truth, shots=20, seed=seed), wide_calibration)
        assert est.shift_hz == pytest.approx(shift, rel=1e-9)
        assert est.sigma_hz == pytest.approx(sigma, rel=1e-9)
        assert est.extrapolated == (truth > wide_calibration.shifts_hz[-1])

    def test_reduced_chi2_near_one_for_shot_noise(self, pipeline, wide_calibration):
        values = [extract_shift(pipeline.signal(2000.0, shots=20, seed=seed),
                                wide_calibration).reduced_chi2 for seed in range(20)]
        assert all(math.isfinite(v) and 0.3 < v < 3.0 for v in values)
        assert np.mean(values) == pytest.approx(1.0, abs=0.2)

    def test_reduced_chi2_unit_when_noiseless(self, pipeline, wide_calibration):
        assert extract_shift(pipeline.signal(2000.0), wide_calibration).reduced_chi2 == 1.0

    def test_extraction_against_noisy_templates(self, pipeline):
        cal = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                shots=200, seed=42)
        est = extract_shift(pipeline.signal(2000.0), cal)
        assert est.shift_hz == pytest.approx(2000.0, rel=0.05)


def rebuilt_grid_extraction(signal, cal):
    """Reference for ``extract_shift``: the algorithm that rebuilt the 600-shift
    chi-square grid on every call and evaluated the minimum twice."""
    s_model = cal.shifts_hz
    if signal.shots is not None:
        var = float(np.mean(np.maximum(signal.p * (1.0 - signal.p), 0.25 / signal.shots))
                    / signal.shots)
    else:
        var = None

    def sse(shift):
        residual = signal.p - cal.interpolate(shift)
        return float(residual @ residual)

    lo = 0.0
    hi = 1.5 * s_model[-1]
    grid = np.linspace(lo, hi, 600)
    residuals = signal.p - template_curves(cal, grid)
    values = np.einsum("ij,ij->i", residuals, residuals)
    i_best = int(np.argmin(values))
    result = minimize_scalar(sse, bounds=(grid[max(i_best - 1, 0)],
                                          grid[min(i_best + 1, len(grid) - 1)]),
                             method="bounded", options={"xatol": (hi - lo) * 1e-7})
    best = float(result.x)
    dof = max(len(signal.p) - 1, 1)
    reduced_chi2 = 1.0
    if var is None:
        var = max(sse(best), 1e-30) / dof
    else:
        reduced_chi2 = sse(best) / (var * dof)
    h = max((hi - lo) * 1e-4, 1e-9)
    curvature = (sse(best + h) - 2.0 * sse(best) + sse(best - h)) / (h * h * var)
    span = s_model[-1] - s_model[0]
    if curvature > 0.0:
        sigma = math.sqrt(2.0 / curvature) * math.sqrt(max(reduced_chi2, 1.0))
    else:
        sigma = span
    return ShiftEstimate(shift_hz=best, sigma_hz=sigma,
                         extrapolated=not s_model[0] <= best <= s_model[-1],
                         uninformative=sigma >= span or reduced_chi2 > 5.0,
                         reduced_chi2=reduced_chi2)


class TestCachedGrid:
    def test_grid_built_once_per_instance(self, pipeline, six_shift_calibration,
                                          monkeypatch):
        grids = []
        build = CalibrationSet._chi2_grid.func

        def counting(cal):
            grids.append(cal)
            return build(cal)

        counted = cached_property(counting)
        counted.__set_name__(CalibrationSet, "_chi2_grid")
        monkeypatch.setattr(CalibrationSet, "_chi2_grid", counted)
        cal = scaled(six_shift_calibration, 1.0)
        seen = []
        for truth in (1200.0, 2500.0, 4000.0):
            extract_shift(pipeline.signal(truth, shots=20, seed=3), cal)
            seen.append(cal._chi2_grid)
        assert grids == [cal]
        assert seen[0] is seen[1] is seen[2]

    @pytest.mark.parametrize("shifts, times, options", [
        (np.geomspace(150.0, 5200.0, 12), TIMES, {}),
        (np.linspace(800.0, 4600.0, 6), TIMES, {"true_partner_fraction": 0.185}),
        (np.linspace(800.0, 4600.0, 6), TIMES, {}),
        ([800.0, 2000.0, 3500.0, 4600.0], np.linspace(10e-6, 120e-6, 45), {}),
        (np.linspace(800.0, 4600.0, 6), TIMES, {"shots": 200, "seed": 42}),
    ], ids=["wide", "partner 0.185", "six shifts", "late time grid", "200 shots"])
    def test_grid_equals_the_many_shift_reference(self, pipeline, shifts, times, options):
        cal = build_calibration(shifts, replace(pipeline, probe_times_s=times), **options)
        lo, hi, grid, curves = cal._chi2_grid
        assert (lo, hi) == (0.0, 1.5 * cal.shifts_hz[-1])
        assert np.array_equal(grid, np.linspace(lo, hi, 600))
        assert np.array_equal(curves, template_curves(cal, grid))

    @pytest.mark.parametrize("factor", [pytest.param(1.0, id="wide"),
                                        pytest.param(0.7, id="partner -0.3"),
                                        pytest.param(1.1, id="partner 0.1")])
    def test_matches_rebuilt_grid_reference(self, pipeline, wide_calibration, factor):
        cal = scaled(wide_calibration, factor)
        signals = [pipeline.signal(truth, shots=20, seed=seed) for seed, truth in
                   enumerate(np.linspace(100.0, 7000.0, 10), start=21)]
        signals += [pipeline.signal(truth) for truth in (90.0, 2000.0, 6500.0)]
        for signal in signals:
            assert extract_shift(signal, cal) == rebuilt_grid_extraction(signal, cal)

    @pytest.mark.parametrize("r", [-0.3, 0.05, 0.185, 0.4])
    def test_extraction_scales_with_the_shift_axis(self, pipeline, wide_calibration,
                                                   six_shift_calibration, r):
        # attributing the templates to shifts x (1 + r) scales every
        # extraction by (1 + r), the partner correction's one-fit shortcut
        truths = (300.0, 2000.0, 4500.0, 6500.0)  # 6500 Hz extrapolates
        signals = [pipeline.signal(truth) for truth in truths]
        signals += [pipeline.signal(truth, shots=20, seed=seed)
                    for seed, truth in enumerate(truths, start=61)]
        for cal in (six_shift_calibration, wide_calibration):
            other = scaled(cal, 1.0 + r)
            for signal in signals:
                base, est = extract_shift(signal, cal), extract_shift(signal, other)
                assert est.shift_hz == pytest.approx((1.0 + r) * base.shift_hz, rel=1e-9)
                assert est.sigma_hz == pytest.approx((1.0 + r) * base.sigma_hz, rel=1e-7)
                assert est.reduced_chi2 == pytest.approx(base.reduced_chi2, rel=1e-9)
                assert (est.extrapolated, est.uninformative) \
                    == (base.extrapolated, base.uninformative)
        assert extract_shift(pipeline.signal(6500.0), six_shift_calibration).extrapolated


def assert_same_search(func, a, b, xatol):
    """``readout._bounded_minimum`` evaluates ``func`` at the points scipy's
    bounded search evaluates, in order, and ends on the same x and value."""
    ours, theirs = [], []
    x, fx = readout._bounded_minimum(lambda v: ours.append(v) or func(v), a, b, xatol)
    result = scipy_bounded_minimum(lambda v: theirs.append(v) or func(v), a, b, xatol)
    assert ours == theirs
    assert (x, len(ours)) == (result.x, result.nfev)
    assert fx == result.fun or (math.isnan(fx) and math.isnan(result.fun))


class TestBoundedSearch:
    """The extraction's in-module Brent search against scipy's."""

    @pytest.mark.parametrize("seed", range(40))
    def test_smooth_functions(self, seed):
        rng = np.random.default_rng(2700 + seed)
        a = float(rng.uniform(-1e4, 1e4))
        b = a + float(10.0 ** rng.uniform(-3.0, 4.0))
        centre, width = float(rng.uniform(a - 0.2 * (b - a), b + 0.2 * (b - a))), b - a
        functions = [
            lambda x: (x - centre) ** 2,
            lambda x: 3.0 - math.cos(3.0 * (x - centre) / width),
            lambda x: ((x - centre) / width) ** 4 + 0.1 * (x - a) / width,
            lambda x: math.exp((x - centre) / width) - 2.0 * (x - centre) / width,
        ]
        for func in functions:
            for xatol in (1e-7 * width, 1e-3 * width, float(rng.uniform(1e-9, 1e-1)) * width):
                assert_same_search(func, a, b, xatol)

    @pytest.mark.parametrize("func", [lambda x: x, lambda x: -x,
                                      lambda x: (x - 40.0) ** 2, lambda x: (x + 3.0) ** 2],
                             ids=["rising", "falling", "beyond upper", "beyond lower"])
    def test_minimum_at_a_bound(self, func):
        assert_same_search(func, 0.0, 25.0, 1e-5)
        assert_same_search(func, -3.0, 7.5e-3, 7.8e-4)

    def test_step_functions(self):
        # piecewise-constant: evaluations tie, and the search keeps or swaps
        # its points on <= exactly as scipy's does
        for seed in range(200):
            rng = np.random.default_rng(2800 + seed)
            a = float(rng.uniform(-10.0, 10.0))
            b = a + float(rng.uniform(0.1, 10.0))
            centre = float(rng.uniform(a - 1.0, b + 1.0))
            step = (b - a) * float(rng.uniform(0.02, 0.4))
            xatol = float(10.0 ** rng.uniform(-8.0, -1.0))
            assert_same_search(lambda x: math.floor(abs(x - centre) / step), a, b, xatol)
            assert_same_search(lambda x: math.floor(((x - centre) / step) ** 2), a, b, xatol)

    def test_constant_function(self):
        assert_same_search(lambda x: 3.0, 1.0, 2.0, 1e-5)
        assert_same_search(lambda x: 0.0, -5.0, 5.0, 1e-9)

    def test_function_returning_nan(self):
        assert_same_search(lambda x: math.nan, 1.0, 2.0, 1e-5)
        # NaN over the upper part of the bracket only
        assert_same_search(lambda x: math.nan if x > 1.3 else (x - 1.2) ** 2, 1.0, 2.0, 1e-5)

    def test_empty_bracket(self):
        assert_same_search(lambda x: x * x, 2.0, 2.0, 1e-5)

    @pytest.mark.parametrize("partner", [None, 0.185], ids=["wide", "partner 0.185"])
    def test_chi2_of_seeded_signals(self, pipeline, wide_calibration, partner):
        # the two calibrations of the readout-identify workload, each with the
        # bracket and tolerance extract_shift gives the search
        cal = wide_calibration if partner is None else build_calibration(
            np.linspace(800.0, 4600.0, 6), pipeline, true_partner_fraction=partner)
        lo, hi, grid, curves = cal._chi2_grid
        rng = np.random.default_rng(2711)
        for seed in range(200):
            truth = float(rng.uniform(100.0, 1.4 * cal.shifts_hz[-1]))
            p = pipeline.signal(truth, shots=20, seed=seed).p

            def sse(shift):
                residual = p - cal.interpolate(shift)
                return float(residual @ residual)

            residuals = p - curves
            i_best = int(np.argmin(np.einsum("ij,ij->i", residuals, residuals)))
            assert_same_search(sse, float(grid[max(i_best - 1, 0)]),
                               float(grid[min(i_best + 1, len(grid) - 1)]), (hi - lo) * 1e-7)


def reextracted_partner_trace(cal, measured, atomic_shift_hz):
    """Reference for ``iterate_partner_correction``: a fresh extraction
    against the calibration rescaled to each partner-fraction belief."""
    sign = math.copysign(1.0, atomic_shift_hz)
    r_hat, trace, converged = 0.0, [], False
    for _ in range(readout.PARTNER_MAX_ITERATIONS):
        estimate = extract_shift(measured, scaled(cal, 1.0 + r_hat)).shift_hz
        r_new = estimate / abs(atomic_shift_hz)
        trace.append(sign * estimate)
        converged = abs(r_new - r_hat) <= readout.PARTNER_REL_TOLERANCE \
            * max(abs(r_new), 1e-12)
        r_hat = r_new
        if converged:
            break
    return trace, converged


class TestPartnerIteration:
    def test_published_iteration_pattern(self, pipeline):
        shifts = np.linspace(800.0, 4600.0, 6)
        r_true = 0.185
        atomic = -5410.0
        cal = build_calibration(shifts, pipeline, true_partner_fraction=r_true)
        measured = pipeline.signal(r_true * abs(atomic))
        result = iterate_partner_correction(cal, measured, atomic)
        fractions = [abs(x) / abs(atomic) for x in result.trace_hz]
        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert len(fractions) >= 3
        # the first three estimates mirror the published 15.8/18.1/18.5% sequence
        assert fractions[0] == pytest.approx(r_true / (1.0 + r_true), rel=0.03)
        assert fractions[2] == pytest.approx(r_true, rel=0.03)
        assert result.converged
        assert result.fraction == pytest.approx(r_true, rel=0.02)
        assert result.partner_shift_hz < 0.0

    def test_zero_partner(self, pipeline, six_shift_calibration):
        result = iterate_partner_correction(six_shift_calibration,
                                            pipeline.signal(0.0), -5410.0)
        assert abs(result.partner_shift_hz) < 20.0
        assert len(result.trace_hz) <= 2
        assert result.converged

    def test_large_partner_converges_or_flags(self, pipeline):
        shifts = np.linspace(800.0, 4600.0, 6)
        cal = build_calibration(shifts, pipeline, true_partner_fraction=0.5)
        measured = pipeline.signal(0.5 * 5410.0)
        try:
            result = iterate_partner_correction(cal, measured, -5410.0)
        except ConvergenceError:
            return
        assert result.converged
        assert result.fraction == pytest.approx(0.5, rel=0.05)

    def test_each_template_fitted_once(self, pipeline, monkeypatch):
        fits = []
        fit = readout.fit_rabi

        def counting(signal):
            fits.append(signal)
            return fit(signal)

        monkeypatch.setattr(readout, "fit_rabi", counting)
        # other tests may have built this calibration already
        readout._noiseless_calibration.cache_clear()
        cal = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                true_partner_fraction=0.185)
        result = iterate_partner_correction(cal, pipeline.signal(0.185 * 5410.0), -5410.0)
        assert len(result.trace_hz) >= 3
        assert len(fits) == len(cal.templates)
        # a refresh with equal inputs reuses the calibration and its fits
        again = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                  true_partner_fraction=0.185)
        assert again is cal
        iterate_partner_correction(again, pipeline.signal(0.185 * 5410.0), -5410.0)
        assert len(fits) == len(cal.templates)

    @pytest.mark.parametrize("r_true, length", [(0.0, 2), (0.05, 4), (0.185, 5),
                                                (0.3, 6), (0.5, 7)])
    def test_matches_reextracted_trace(self, pipeline, r_true, length):
        cal = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                true_partner_fraction=r_true)
        measured = pipeline.signal(r_true * 5410.0)
        result = iterate_partner_correction(cal, measured, -5410.0)
        trace, converged = reextracted_partner_trace(cal, measured, -5410.0)
        assert len(result.trace_hz) == len(trace) == length
        assert result.converged == converged
        assert result.trace_hz == pytest.approx(trace, rel=1e-9)
        assert result.fraction == pytest.approx(trace[-1] / -5410.0, rel=1e-9)

    def test_one_extraction_and_one_interpolant(self, pipeline, monkeypatch):
        readout._noiseless_calibration.cache_clear()
        cal = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                true_partner_fraction=0.185)
        extractions, builds = [], []
        extract, pchip = readout.extract_shift, readout.PchipInterpolator

        def counting_extract(*args):
            extractions.append(args)
            return extract(*args)

        def counting_pchip(*args, **kwargs):
            builds.append(args)
            return pchip(*args, **kwargs)

        monkeypatch.setattr(readout, "extract_shift", counting_extract)
        monkeypatch.setattr(readout, "PchipInterpolator", counting_pchip)
        result = iterate_partner_correction(cal, pipeline.signal(0.185 * 5410.0), -5410.0)
        assert len(result.trace_hz) == 5
        assert len(extractions) == len(builds) == 1
        # a refresh with equal inputs extracts again but builds no interpolant
        again = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                  true_partner_fraction=0.185)
        assert again is cal
        assert iterate_partner_correction(again, pipeline.signal(0.185 * 5410.0),
                                          -5410.0) == result
        assert (len(extractions), len(builds)) == (2, 1)

    def test_zero_atomic_shift_rejected(self, pipeline, six_shift_calibration):
        with pytest.raises(ValueError):
            iterate_partner_correction(six_shift_calibration,
                                       pipeline.signal(500.0), 0.0)


class TestNoiselessCache:
    SHIFTS = (800.0, 2000.0, 3500.0)

    def test_equal_inputs_share_one_calibration(self, crystal, pipeline):
        cal = build_calibration(self.SHIFTS, pipeline, true_partner_fraction=0.1)
        fresh = ReadoutPipeline(crystal)
        assert fresh is not pipeline
        assert build_calibration(np.array(self.SHIFTS), fresh,
                                 true_partner_fraction=0.1) is cal

    def test_any_changed_input_builds_anew(self, crystal, pipeline):
        base = build_calibration(self.SHIFTS, pipeline, true_partner_fraction=0.1)
        other_crystal = TwoIonCrystal.from_lattice_periods(28, 40, 20, 789.0)
        variants = [
            build_calibration((800.0, 2000.0, 3600.0), pipeline, true_partner_fraction=0.1),
            build_calibration(self.SHIFTS, pipeline, true_partner_fraction=0.2),
            build_calibration(self.SHIFTS, replace(pipeline, eta=0.11),
                              true_partner_fraction=0.1),
            build_calibration(self.SHIFTS, replace(pipeline, decoherence_tau_s=1e-3),
                              true_partner_fraction=0.1),
            build_calibration(self.SHIFTS, replace(pipeline, probe_times_s=TIMES * 1.01),
                              true_partner_fraction=0.1),
            build_calibration(self.SHIFTS, replace(pipeline, crystal=other_crystal),
                              true_partner_fraction=0.1),
        ]
        for cal in variants:
            assert cal is not base
            assert not all(np.array_equal(a.p, b.p)
                           for a, b in zip(cal.templates, base.templates))

    def test_noisy_builds_never_shared(self, pipeline):
        first = build_calibration(self.SHIFTS, pipeline, shots=20)
        second = build_calibration(self.SHIFTS, pipeline, shots=20)
        assert first is not second
        assert first.templates[0].p.flags.writeable

    def test_shared_arrays_are_read_only(self, pipeline):
        cal = build_calibration(self.SHIFTS, pipeline)
        for array in (cal.templates[0].p, cal.templates[0].times_s,
                      cal.template_frequencies_hz, pipeline.probe_times_s):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_refused_build_raises_on_every_call(self, pipeline):
        for _ in range(2):
            with pytest.raises(ValueError, match="at least 3"):
                build_calibration([800.0, 2000.0], pipeline)
            with pytest.raises(ValueError, match="strictly increasing"):
                build_calibration([800.0, 800.0, 2000.0], pipeline)

    def test_pipeline_equality_and_hash_agree(self, crystal):
        times = TIMES.copy()
        a = ReadoutPipeline(TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0),
                            probe_times_s=times)
        b = ReadoutPipeline(crystal, probe_times_s=list(TIMES))
        assert a == b and hash(a) == hash(b)
        times[1] = 1e-7          # the pipeline holds its own copy
        assert a == b and hash(a) == hash(b)
        c = replace(b, carrier_rabi_hz=51e3)
        assert a != c and {a, b, c} == {a, c}

    def test_key_made_once_per_pipeline(self, crystal, monkeypatch):
        a = ReadoutPipeline(crystal, probe_times_s=np.linspace(0.0, 120e-6, 61))
        b = ReadoutPipeline(crystal, probe_times_s=np.linspace(0.0, 120e-6, 61))
        moved = np.linspace(0.0, 120e-6, 61)
        moved[30] = np.nextafter(moved[30], 1.0)
        c = ReadoutPipeline(crystal, probe_times_s=moved)
        # comparing and hashing read the key made at construction
        monkeypatch.setattr(readout, "fields", lambda _: pytest.fail("key rebuilt"))
        assert a.probe_times_s is not b.probe_times_s
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != c and b != c and len({a, b, c}) == 2
        assert build_calibration(TestNoiselessCache.SHIFTS, a) \
            is build_calibration(TestNoiselessCache.SHIFTS, b)


class TestPipeline:
    def test_probe_grid_must_be_finite_and_increasing(self, crystal):
        default = ReadoutPipeline(crystal).probe_times_s
        # swapping two samples once shifted 3500 Hz to 3454.3 Hz, unflagged
        swapped = default.copy()
        swapped[[10, 40]] = swapped[[40, 10]]
        repeated = default.copy()
        repeated[5] = repeated[4]
        holed = default.copy()
        holed[3] = np.nan
        for times in (swapped, repeated, holed, default[::-1]):
            with pytest.raises(ValueError, match="strictly increasing"):
                ReadoutPipeline(crystal, probe_times_s=times)

    def test_mode_phonon_number_scale(self, pipeline):
        # 1 kHz effective shift for 3 ms on the reference crystal: n of order 10
        assert pipeline.mode_n_mean(1000.0) == pytest.approx(16.36, rel=1e-2)
        # the measurement regime keeps visible Rabi contrast
        for shift in (1000.0, 3000.0, 5000.0):
            assert 1.0 < pipeline.mode_n_mean(shift) < 500.0

    @pytest.mark.parametrize("shift", [20e3, 50e3, 100e3])
    def test_shift_beyond_the_fock_cutoff_is_named(self, pipeline, shift):
        # the message keeps the population check's text as its prefix
        with pytest.raises(FockCutoffError) as raised:
            pipeline.signal(shift)
        message = str(raised.value)
        assert message.startswith("populations must sum to 1 within 1e-6, got ")
        assert message.endswith(
            f": a {shift:g} Hz mode shift gives a mean phonon number of "
            f"{pipeline.mode_n_mean(shift):.0f}, beyond the {readout.MAX_FOCK}-level "
            "Fock cutoff")

    def test_shift_inside_the_fock_cutoff_works(self, pipeline):
        assert pipeline.signal(9000.0).p.shape == TIMES.shape

    def test_signal_reproducible(self, pipeline):
        a = pipeline.signal(1500.0, shots=20, seed=3)
        b = pipeline.signal(1500.0, shots=20, seed=3)
        assert np.array_equal(a.p, b.p)

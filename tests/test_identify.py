import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odfprobe import stark
from odfprobe.angular import HalfInt
from odfprobe.catalog import load_shipped_catalog
from odfprobe.identify import (SIGNS, Measurement, ShiftPrediction,
                               apply_partial_readout, background_shift_hz,
                               classify_event, combined_sigma, exclusion_window,
                               format_report_text, identification_report,
                               match_candidates, predict_catalog_shifts,
                               read_measurements, write_report_json)
from odfprobe.quantities import polarizability_to_shift, wavelength_to_angular_frequency
from odfprobe.stark import NearResonanceError, polarizability_breakdown
from odfprobe.states import MolecularState, enumerate_states

from oracles import (exact_3j_doubled, exact_6j_doubled, identification_report_loop,
                     match_candidates_loop)

F_IP = 695.86e3


def make_measurement(shift_hz, sign, wavelength=789.0, intensity=1.15e7,
                     sigma=None, f_ip=F_IP):
    return Measurement(wavelength, intensity, abs(shift_hz),
                       sigma or combined_sigma(shift_hz, 10.0), sign, f_ip)


@pytest.fixture(scope="module")
def predictions(catalog_module, anchor_module):
    return predict_catalog_shifts(789.0, anchor_module, enumerate_states(8),
                                  catalog_module)


@pytest.fixture(scope="module")
def catalog_module():
    from odfprobe.catalog import load_shipped_catalog
    return load_shipped_catalog()


@pytest.fixture(scope="module")
def anchor_module():
    from odfprobe.quantities import intensity_from_core_anchor
    return intensity_from_core_anchor()


class TestMeasurement:
    def test_validation(self):
        with pytest.raises(ValueError):
            Measurement(789.0, 1e7, -1.0, 10.0, "red", F_IP)
        with pytest.raises(ValueError):
            Measurement(789.0, 1e7, 1.0, 0.0, "red", F_IP)
        with pytest.raises(ValueError):
            Measurement(789.0, 1e7, 1.0, 10.0, "violet", F_IP)

    @pytest.mark.parametrize("field", ["wavelength", "intensity", "shift", "sigma",
                                       "f_ip"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        values = dict(wavelength=789.0, intensity=1e7, shift=1.0, sigma=10.0, f_ip=F_IP)
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            Measurement(values["wavelength"], values["intensity"], values["shift"],
                        values["sigma"], "red", values["f_ip"])

    @pytest.mark.parametrize("wavelength, intensity, named", [
        (1e-300, 1e7, "wavelength_nm"), (0.5, 1e7, "wavelength_nm"),
        (2e6, 1e7, "wavelength_nm"), (789.0, -1.0, "intensity_w_m2"),
        (789.0, 0.0, "intensity_w_m2"), (789.0, 0.5, "intensity_w_m2"),
        (789.0, 1e30, "intensity_w_m2")])
    def test_outside_the_config_bounds_rejected(self, wavelength, intensity, named):
        # the bounds of [lattice] wavelength_nm and intensity_w_m2: at 1e-300 nm
        # the lattice frequency overflows and every shift is the core term's,
        # and at 0 W/m^2 (or below about 3e-284 W/m^2, underflowing) every
        # shift is 0.0 Hz
        with pytest.raises(ValueError, match=f"^{named} must be finite and in \\["):
            Measurement(wavelength, intensity, 500.0, 30.0, "red", F_IP)

    @pytest.mark.parametrize("wavelength, intensity", [(1.0, 1.0), (1e6, 1e20)])
    def test_config_bounds_are_inclusive(self, wavelength, intensity):
        Measurement(wavelength, intensity, 500.0, 30.0, "red", F_IP)

    @pytest.mark.parametrize("f_ip", [0.0, -F_IP])
    def test_non_positive_f_ip_rejected(self, f_ip):
        with pytest.raises(ValueError, match="in-phase"):
            Measurement(789.0, 1e7, 1.0, 10.0, "red", f_ip)

    def test_combined_sigma_quadrature(self):
        assert combined_sigma(1000.0, 30.0) == pytest.approx(math.hypot(30.0, 100.0))

    def test_sign_matching(self):
        red = make_measurement(500.0, "red")
        assert red.sign_matches(-500.0) and not red.sign_matches(500.0)
        anything = make_measurement(500.0, "indeterminate")
        assert anything.sign_matches(-500.0) and anything.sign_matches(500.0)


class TestPredictions:
    def test_deterministic_order_and_m_parity(self, predictions):
        keys = [p.state.sort_key() for p in predictions]
        assert keys == sorted(keys)
        by_state = {p.state: p for p in predictions}
        for state, pred in by_state.items():
            if pred.shift_hz is None:
                continue
            mirrored = MolecularState(state.n, state.j, state.i_nuc, state.f,
                                      HalfInt(-state.m.twice))
            twin = by_state[mirrored]
            assert twin.shift_hz == pytest.approx(pred.shift_hz, rel=1e-12)

    def test_near_resonant_states_flagged_not_dropped(self, catalog_module,
                                                      anchor_module):
        # right on the anchor line every J'' = 11/2 state is guarded
        preds = predict_catalog_shifts(789.1872, anchor_module,
                                       enumerate_states(8), catalog_module)
        flagged = [p for p in preds if p.shift_hz is None]
        assert flagged
        assert all(p.state.j == HalfInt(11) and p.state.n == 6 for p in flagged)
        assert len(preds) == 540

    def test_empty_states_rejected(self, catalog_module, anchor_module):
        with pytest.raises(ValueError):
            predict_catalog_shifts(789.0, anchor_module, [], catalog_module)


class TestPredictionView:
    """``predict_catalog_shifts`` returns a read-only sequence over the table's
    arrays that reads like the list of predictions it replaced."""

    def test_sequence_contract(self, predictions):
        listed = list(predictions)
        assert len(predictions) == len(listed) == 540
        assert all(type(p) is ShiftPrediction for p in listed)
        assert list(predictions) == listed          # a second pass gives the same
        assert predictions[-1] == predictions[539] == listed[-1]
        assert predictions[-540] == predictions[0] == listed[0]
        for index in (540, -541):
            with pytest.raises(IndexError):
                predictions[index]
        with pytest.raises(TypeError):
            predictions[1:3]
        by_state = {p.state: p for p in predictions}
        assert list(by_state) == [p.state for p in listed]
        assert all(by_state[p.state] == p for p in listed)
        assert [p.sign for p in listed] == ["red" if p.shift_hz < 0.0 else "blue"
                                            for p in listed]
        assert [p.shift_hz for p in listed] == predictions.shifts.tolist()

    def test_flagged_elements(self, catalog_module, anchor_module):
        near = predict_catalog_shifts(787.4755, anchor_module, enumerate_states(8),
                                      catalog_module)
        flagged = [p for p in near if p.shift_hz is None]
        assert len(flagged) == 12 == int(near.flagged.sum())
        assert [p.shift_hz is None for p in near] == near.flagged.tolist()
        assert all(p.sign == "indeterminate" and (p.state.n, p.state.j.twice) == (0, 1)
                   for p in flagged)
        for p in flagged:       # the per-state path names the line
            with pytest.raises(NearResonanceError, match=re.escape("R1(1/2)")):
                polarizability_breakdown(p.state, 787.4755, catalog_module)

    def test_arrays_are_read_only(self, catalog_module, anchor_module, predictions):
        for array in (predictions.shifts, predictions.flagged):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            predictions.shifts = np.zeros(540)
        # a second evaluation at the same wavelength holds arrays of its own
        again = predict_catalog_shifts(789.0, anchor_module, enumerate_states(8),
                                       catalog_module)
        assert not np.shares_memory(again.shifts, predictions.shifts)
        assert np.array_equal(again.shifts, predictions.shifts)


class TestArrayIdentification:
    """The tier masks and the once-formatted entry fields give what the
    per-object loop of ``tests/oracles.py`` gives, byte for byte."""

    @pytest.mark.parametrize("wavelength, flagged", [(789.0, 0), (789.71, 0),
                                                     (787.4755, 12)])
    def test_equals_the_loop(self, catalog_module, anchor_module, wavelength, flagged):
        preds = predict_catalog_shifts(wavelength, anchor_module, enumerate_states(8),
                                       catalog_module)
        listed = list(preds)
        magnitudes = [abs(p.shift_hz) for p in listed if p.shift_hz is not None]
        rng = np.random.default_rng(2601)
        for sign in SIGNS:
            for trial in range(42):
                # anywhere in the range, near some state's shift, or with that
                # state exactly on the edge of the k = 1 tier
                target = magnitudes[int(rng.integers(len(magnitudes)))]
                sigma = float(rng.uniform(5.0, 300.0))
                if trial % 3 == 0:
                    shift = float(rng.uniform(0.0, 1.2 * max(magnitudes)))
                elif trial % 3 == 1:
                    shift = abs(target * float(rng.normal(1.0, 0.05)))
                else:
                    shift = abs(target + float(rng.choice([-1.0, 1.0])) * sigma)
                    sigma = abs(target - shift)
                meas = Measurement(wavelength, anchor_module, shift, sigma, sign, F_IP)
                ks = (1.0, round(float(rng.uniform(0.5, 4.0)), 3))
                report = identification_report(meas, preds, ks=ks)
                assert json.dumps(report) == json.dumps(
                    identification_report_loop(meas, listed, ks=ks))
                assert report["flagged_states"] == flagged
                for k in ks:
                    result = match_candidates(meas, preds, k=k)
                    expected = match_candidates_loop(meas, listed, k=k)
                    assert result == expected
                    assert (result.excluded_states, result.exclusion_fraction) \
                        == (expected.excluded_states, expected.exclusion_fraction)

    def test_measurement_as_asdict_gave_it(self, predictions):
        meas = Measurement(789.0, 1.1508e7, np.float64(1229.9), 130.0, "red", F_IP)
        report = identification_report(meas, predictions)
        assert json.dumps(report["measurement"]) == json.dumps(dataclasses.asdict(meas))
        assert list(report) == ["measurement", "total_states", "flagged_states", "tiers"]


class TestTierLabels:
    """Each tier is keyed by ``k={k:g}``: distinct ks must not share a key."""

    def test_colliding_labels_refused(self, predictions):
        meas = make_measurement(600.0, "red", sigma=80.0)
        with pytest.raises(ValueError, match=re.escape("(1.0, 1.0000001)")):
            identification_report(meas, predictions, ks=(1.0, 1.0000001))

    def test_empty_ks_refused(self, predictions):
        with pytest.raises(ValueError, match=re.escape("sigma multipliers ()")):
            identification_report(make_measurement(600.0, "red"), predictions, ks=())

    def test_equal_ks_share_one_tier(self, predictions):
        meas = make_measurement(600.0, "red", sigma=80.0)
        report = identification_report(meas, predictions, ks=(1.0, 1))
        assert list(report["tiers"]) == ["k=1"]
        assert report == identification_report(meas, predictions, ks=(1.0,))


def scalar_predictions(wavelength, intensity, states, catalog, guard_hz=1e9):
    """(state, shift, flagged) per state from the per-state
    polarizability_breakdown -> polarizability_to_shift loop: flagged exactly
    where it raises NearResonanceError."""
    rows = []
    for state in sorted(states, key=MolecularState.sort_key):
        try:
            alpha = polarizability_breakdown(state, wavelength, catalog, guard_hz).total_au
        except NearResonanceError:
            rows.append((state, None, True))
            continue
        rows.append((state, polarizability_to_shift(alpha, intensity), False))
    return rows


def table_predictions(wavelength, intensity, states, catalog, guard_hz=1e9):
    """(state, shift, flagged) per state from the view and its flag mask."""
    predictions = predict_catalog_shifts(wavelength, intensity, states, catalog, guard_hz)
    return [(p.state, p.shift_hz, hit)
            for p, hit in zip(predictions, predictions.flagged.tolist())]


class TestStrengthTable:
    """The per-catalog strength table reproduces the scalar path exactly."""

    @pytest.mark.parametrize("wavelength, guard_hz, flagged", [
        (789.0, 1e9, 0),
        (789.71, 1e9, 0),
        (786.2, 1e9, 0),
        (787.4755, 1e9, 12),       # 18 MHz from R1(1/2)
        (789.0, 6e13, 540),        # the A(v'=3) far band is inside the guard
    ])
    def test_equals_scalar_path(self, catalog_module, anchor_module, wavelength,
                                guard_hz, flagged):
        states = enumerate_states(8)
        table = table_predictions(wavelength, anchor_module, states, catalog_module,
                                  guard_hz)
        assert table == scalar_predictions(wavelength, anchor_module, states,
                                           catalog_module, guard_hz)
        assert sum(shift is None for _, shift, _ in table) == flagged
        assert all(type(shift) is float for _, shift, _ in table if shift is not None)

    @settings(max_examples=20, deadline=None)
    @given(wavelength=st.floats(785.0, 790.0))
    def test_equals_scalar_path_over_window(self, catalog_module, anchor_module,
                                            wavelength):
        states = enumerate_states(8)
        assert table_predictions(wavelength, anchor_module, states, catalog_module) \
            == scalar_predictions(wavelength, anchor_module, states, catalog_module)

    def test_subset_and_order(self, catalog_module, anchor_module):
        states = [s for s in enumerate_states(8) if s.i_nuc == 2 and s.n >= 4][::-1]
        assert table_predictions(789.0, anchor_module, states, catalog_module) \
            == scalar_predictions(789.0, anchor_module, states, catalog_module)

    def test_equals_table_on_exact_kernels(self, monkeypatch):
        # all 540 states, tabulated once with the integer Wigner kernels and
        # once with the Fraction reference of tests/oracles.py, each on a
        # freshly loaded catalog so that neither is the other's cached table
        states = enumerate_states(8)
        table = stark.stark_table(states, load_shipped_catalog())
        monkeypatch.setattr(stark, "_wigner_3j_doubled", exact_3j_doubled)
        monkeypatch.setattr(stark, "_wigner_6j_doubled", exact_6j_doubled)
        exact = stark.stark_table(states, load_shipped_catalog())
        assert len(states) == 540
        assert np.array_equal(table.line_index, exact.line_index)
        assert np.array_equal(table.mu2_si, exact.mu2_si)

    def test_built_once_per_state_set(self, anchor_module, monkeypatch):
        catalog = load_shipped_catalog()
        states = enumerate_states(8)
        calls = []
        original = stark.transition_strength

        def counting(state, line):
            calls.append(state)
            return original(state, line)

        monkeypatch.setattr(stark, "transition_strength", counting)
        predict_catalog_shifts(789.0, anchor_module, states, catalog)
        predict_catalog_shifts(789.71, anchor_module, states[::-1], catalog)
        assert len(calls) == sum(len(catalog.lines_from(s.n, s.j)) for s in states)

    def test_cached_in_stark_per_catalog_object(self, anchor_module):
        catalog, other = load_shipped_catalog(), load_shipped_catalog()
        states = enumerate_states(4)
        before = dict(vars(catalog))
        predict_catalog_shifts(789.0, anchor_module, states, catalog)
        assert vars(catalog) == before
        table = stark.stark_table(states[::-1], catalog)
        assert stark.stark_table(states, catalog) is table
        assert stark.stark_table(states, other) is not table
        with pytest.raises(ValueError):
            table.mu2_si[0, 0] = 1.0


def assert_table_of(table, states, catalog):
    """``table`` is the table of ``states`` on ``catalog``, rows in sort_key order."""
    assert table.catalog is catalog
    assert table.states == tuple(sorted(states, key=MolecularState.sort_key))
    fresh = stark._build_table.__wrapped__(table.states, catalog)
    assert np.array_equal(table.line_index, fresh.line_index)
    assert np.array_equal(table.mu2_si, fresh.mu2_si)


class TestTableLookup:
    """``stark_table`` returns the last table of a catalog without sorting
    when its input repeats, and the table of its contents otherwise."""

    def test_same_list_twice_is_one_object(self, catalog_module, monkeypatch):
        states = enumerate_states(4)
        table = stark.stark_table(states, catalog_module)
        monkeypatch.setattr(stark, "sorted", lambda *args, **kwargs: pytest.fail("sorted"),
                            raising=False)
        assert stark.stark_table(states, catalog_module) is table
        assert stark.stark_table(tuple(states), catalog_module) is table

    def test_list_mutated_in_place(self, catalog_module, anchor_module):
        states = enumerate_states(4)
        original = list(states)
        first = stark.stark_table(states, catalog_module)
        removed = states.pop(7)
        assert_table_of(stark.stark_table(states, catalog_module), states, catalog_module)
        states[3] = removed             # same length, other contents
        assert_table_of(stark.stark_table(states, catalog_module), states, catalog_module)
        states.append(states[0])        # the same set of states, one twice
        assert_table_of(stark.stark_table(states, catalog_module), states, catalog_module)
        assert table_predictions(789.0, anchor_module, states, catalog_module) \
            == scalar_predictions(789.0, anchor_module, states, catalog_module)
        states[:] = original
        assert stark.stark_table(states, catalog_module) is first

    def test_permuted_list(self, catalog_module):
        states = enumerate_states(4)
        first = stark.stark_table(states, catalog_module)
        shuffled = [states[i] for i in np.random.default_rng(27).permutation(len(states))]
        table = stark.stark_table(shuffled, catalog_module)
        assert_table_of(table, shuffled, catalog_module)
        assert table.states == first.states
        assert np.array_equal(table.mu2_si, first.mu2_si)

    def test_equal_but_distinct_states(self, catalog_module):
        states = enumerate_states(4)
        first = stark.stark_table(states, catalog_module)
        copies = [dataclasses.replace(s) for s in states]
        assert all(c == s and c is not s for c, s in zip(copies, states))
        table = stark.stark_table(copies, catalog_module)
        assert table.states == first.states
        assert np.array_equal(table.line_index, first.line_index)
        assert np.array_equal(table.mu2_si, first.mu2_si)

    def test_never_another_catalogs_table(self, catalog_module):
        other = load_shipped_catalog()
        states = enumerate_states(4)
        first = stark.stark_table(states, catalog_module)
        for _ in range(2):
            table = stark.stark_table(states, other)
            assert table is not first
            assert_table_of(table, states, other)
            assert stark.stark_table(states, catalog_module) is first

    def test_empty_input_refused_every_time(self, catalog_module):
        for _ in range(2):
            with pytest.raises(ValueError, match="no states"):
                stark.stark_table([], catalog_module)


class TestEvaluationMemo:
    """``StarkTable.shifts`` evaluates each (table, wavelength, guard) once and
    scales it by each call's intensity, bit for bit as a cold evaluation."""

    @staticmethod
    def clear():
        stark._evaluation.cache_clear()
        stark._far_band_au.cache_clear()

    @pytest.mark.parametrize("wavelength, flagged", [(789.0, 0), (789.71, 0),
                                                     (787.4755, 12)])
    def test_repeat_equals_cold_and_scalar_path(self, catalog_module, anchor_module,
                                                wavelength, flagged):
        states = enumerate_states(8)
        table = stark.stark_table(states, catalog_module)
        intensities = (anchor_module, 0.37 * anchor_module)
        self.clear()
        warm = [table.shifts(wavelength, intensity) for intensity in intensities]
        assert stark._evaluation.cache_info()[:2] == (1, 1)     # one hit, one miss
        for intensity, (shifts, hits) in zip(intensities, warm):
            self.clear()
            cold = table.shifts(wavelength, intensity)
            assert np.array_equal(shifts, cold[0]) and np.array_equal(hits, cold[1])
            assert int(hits.sum()) == flagged
            assert table_predictions(wavelength, intensity, states, catalog_module) \
                == scalar_predictions(wavelength, intensity, states, catalog_module)

    def test_each_call_owns_its_output(self, catalog_module, anchor_module):
        table = stark.stark_table(enumerate_states(8), catalog_module)
        shifts, hits = table.shifts(787.4755, anchor_module)
        expected = (shifts.copy(), hits.copy())
        shifts[:], hits[:] = 1.0, ~hits
        again = table.shifts(787.4755, anchor_module)
        assert np.array_equal(again[0], expected[0])
        assert np.array_equal(again[1], expected[1])

    def test_far_band_flags_every_state_on_each_call(self, catalog_module, anchor_module):
        # 1109.14 nm is the A(v'=0) far band itself
        states = enumerate_states(8)
        self.clear()
        expected = scalar_predictions(1109.14, anchor_module, states, catalog_module)
        assert all(shift is None and hit for _, shift, hit in expected)
        with pytest.raises(NearResonanceError, match=re.escape("far band A(v'=0)")):
            polarizability_breakdown(states[0], 1109.14, catalog_module)
        for _ in range(2):
            predictions = predict_catalog_shifts(1109.14, anchor_module, states,
                                                 catalog_module)
            assert int(predictions.flagged.sum()) == 540
            assert not predictions.shifts.any()
            assert table_predictions(1109.14, anchor_module, states, catalog_module) \
                == expected
            with pytest.raises(NearResonanceError, match="far band A"):
                background_shift_hz(1109.14, anchor_module, catalog_module)

    def test_background_reuses_the_far_band_term(self, catalog_module, anchor_module):
        self.clear()
        predict_catalog_shifts(789.0, anchor_module, enumerate_states(8), catalog_module)
        hits = stark._far_band_au.cache_info().hits
        background = background_shift_hz(789.0, anchor_module, catalog_module)
        assert stark._far_band_au.cache_info().hits == hits + 1
        far = stark._far_band_au.__wrapped__(wavelength_to_angular_frequency(789.0),
                                             catalog_module, 1e9)
        alpha = 0.0 + far + catalog_module.core_polarizability_au
        assert background == abs(polarizability_to_shift(alpha, anchor_module))


class TestMatching:
    def test_huge_sigma_keeps_all_sign_consistent(self, predictions):
        meas = make_measurement(1000.0, "red", sigma=1e9)
        result = match_candidates(meas, predictions, k=1.0)
        reds = [p for p in predictions
                if p.shift_hz is not None and p.shift_hz < 0.0]
        assert len(result.candidates) == len(reds)

    def test_tiny_sigma_selects_m_pair(self, predictions):
        target = MolecularState(4, HalfInt(7), 0, None, HalfInt(7))
        shift = next(p.shift_hz for p in predictions if p.state == target)
        meas = make_measurement(shift, "red", sigma=1e-6)
        result = match_candidates(meas, predictions, k=1.0)
        labels = {(p.state.n, p.state.j.twice, p.state.i_nuc, abs(p.state.m.twice))
                  for p in result.candidates}
        assert (4, 7, 0, 7) in labels
        assert all(entry[:2] == (4, 7) or entry[2] == 2 for entry in labels)

    def test_k_growth_never_shrinks(self, predictions):
        meas = make_measurement(1200.0, "red")
        sizes = [len(match_candidates(meas, predictions, k=k).candidates)
                 for k in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_counts_balance(self, predictions, catalog_module, anchor_module):
        def counts(result):
            return len(result.candidates), len(result.flagged), result.excluded_states

        result = match_candidates(make_measurement(1200.0, "red"), predictions, k=1.0)
        assert sum(counts(result)) == result.total_states == 540
        # 18 MHz from R1(1/2) the 12 N=0 J=1/2 states are flagged; a state
        # that was never evaluated is not excluded.
        near = predict_catalog_shifts(787.4755, anchor_module, enumerate_states(8),
                                      catalog_module)
        result = match_candidates(make_measurement(1200.0, "blue", wavelength=787.4755),
                                  near, k=1.0)
        assert counts(result) == (2, 12, 526)
        assert sum(counts(result)) == result.total_states

    def test_no_false_exclusion_noiseless(self, catalog_module, anchor_module):
        # every state's own synthetic measurement keeps it in the candidate set
        for wavelength in (788.5, 789.0, 789.71):
            preds = predict_catalog_shifts(wavelength, anchor_module,
                                           enumerate_states(8), catalog_module)
            for p in preds:
                if p.shift_hz is None:
                    continue
                meas = make_measurement(p.shift_hz, p.sign, wavelength=wavelength)
                result = match_candidates(meas, preds, k=1.0)
                assert any(c.state == p.state for c in result.candidates)

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            match_candidates(make_measurement(1.0, "red"), [])


class TestExclusionWindows:
    def test_published_thresholds(self, catalog_module):
        expected = {0: (787.5, 782.6), 2: (788.2, 782.1), 4: (789.4, 781.6)}
        for n, (red, blue) in expected.items():
            red_min, blue_max = exclusion_window(n, catalog_module)
            assert red_min == pytest.approx(red, abs=0.3)
            assert blue_max == pytest.approx(blue, abs=0.3)

    def test_windows_nest_monotonically(self, catalog_module):
        reds, blues = [], []
        for n in (0, 2, 4):
            red_min, blue_max = exclusion_window(n, catalog_module)
            reds.append(red_min)
            blues.append(blue_max)
        assert reds == sorted(reds)
        assert blues == sorted(blues, reverse=True)

    def test_validation(self, catalog_module):
        with pytest.raises(ValueError):
            exclusion_window(3, catalog_module)
        with pytest.raises(ValueError):
            exclusion_window(12, catalog_module)  # beyond the shipped catalog


class TestPartialReadout:
    def test_blue_beyond_red_threshold_excludes(self, catalog_module):
        meas = make_measurement(500.0, "blue", wavelength=789.71)
        assert apply_partial_readout(meas, 4, catalog_module) == "excluded"

    def test_red_beyond_red_threshold_consistent(self, catalog_module):
        meas = make_measurement(900.0, "red", wavelength=789.71)
        assert apply_partial_readout(meas, 4, catalog_module) == "not-excluded"

    def test_inside_band_inapplicable(self, catalog_module):
        meas = make_measurement(500.0, "blue", wavelength=788.0)
        assert apply_partial_readout(meas, 4, catalog_module) == "inapplicable"

    def test_blue_side_rule(self, catalog_module):
        meas = make_measurement(500.0, "red", wavelength=781.0)
        assert apply_partial_readout(meas, 4, catalog_module) == "excluded"
        meas = make_measurement(500.0, "blue", wavelength=781.0)
        assert apply_partial_readout(meas, 4, catalog_module) == "not-excluded"

    def test_indeterminate_sign_rejected(self, catalog_module):
        meas = make_measurement(500.0, "indeterminate", wavelength=789.71)
        with pytest.raises(ValueError, match="determined"):
            apply_partial_readout(meas, 4, catalog_module)

    def test_exclusion_soundness(self, catalog_module, anchor_module):
        # synthetic measurements from states inside the manifold are never
        # excluded when probed beyond the red threshold
        preds = predict_catalog_shifts(789.71, anchor_module,
                                       enumerate_states(4), catalog_module)
        for p in preds:
            if p.shift_hz is None:
                continue
            meas = make_measurement(p.shift_hz, p.sign, wavelength=789.71)
            assert apply_partial_readout(meas, 4, catalog_module) == "not-excluded"


class TestClassifyEvent:
    def test_reaction_from_frequency_change(self):
        before = make_measurement(900.0, "red", f_ip=695e3)
        after = make_measurement(400.0, "red", f_ip=690e3)
        assert classify_event(before, after) == "reaction"

    def test_quantum_jump_from_sign_flip(self):
        before = make_measurement(900.0, "blue", wavelength=789.71, f_ip=695e3)
        after = make_measurement(700.0, "red", wavelength=789.71, f_ip=695e3)
        assert classify_event(before, after) == "quantum_jump"

    def test_quantum_jump_from_magnitude_change(self):
        before = make_measurement(2000.0, "red", sigma=50.0)
        after = make_measurement(500.0, "red", sigma=50.0)
        assert classify_event(before, after) == "quantum_jump"

    def test_no_change(self):
        meas = make_measurement(900.0, "red")
        assert classify_event(meas, meas) == "no_change"

    def test_threshold_is_half_mass_signature(self):
        before = make_measurement(900.0, "red", f_ip=695e3)
        barely = make_measurement(900.0, "red", f_ip=695e3 * (1.0 - 2.9e-3))
        assert classify_event(before, barely) == "no_change"


class TestReports:
    def test_report_structure_and_text(self, predictions, tmp_path):
        meas = make_measurement(1477.0, "red")
        report = identification_report(meas, predictions)
        assert report["total_states"] == 540
        assert "k=1" in report["tiers"] and "k=2" in report["tiers"]
        k1 = report["tiers"]["k=1"]
        assert k1["candidate_count"] + k1["excluded_count"] == 540
        text = format_report_text(report)
        assert "candidate" in text and "excluded" in text
        out = tmp_path / "report.json"
        write_report_json(report, out)
        assert out.exists()
        import json
        loaded = json.loads(out.read_text())
        assert loaded["tiers"]["k=1"]["candidate_count"] == k1["candidate_count"]

    def test_background_shift(self, catalog_module, anchor_module):
        background = background_shift_hz(789.0, anchor_module, catalog_module)
        # core 7.23 au alone gives 390 Hz; far bands add to it
        assert background > 390.0
        assert background < 1000.0


class TestMeasurementFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\n"
            "789.0,1.15e7,1477.0,150.0,red,695858.0\n"
            "789.71,1.15e7,500.0,60.0,blue,695858.0\n"
        )
        measurements = read_measurements(path)
        assert len(measurements) == 2
        assert measurements[0].sign == "red"
        assert measurements[1].wavelength_nm == 789.71

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,shift_Hz\n789.0,1.0\n")
        with pytest.raises(ValueError, match="missing column"):
            read_measurements(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\n"
            "789.0,1.15e7,1477.0,150.0,purple,695858.0\n"
        )
        with pytest.raises(ValueError, match="bad2.csv:2"):
            read_measurements(path)

    def test_blank_and_comment_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "# run 7\n"
            "wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\n"
            "789.0,1.15e7,1477.0,150.0,red,695858.0\n"
            "   \n"
            "789.71,1.15e7,500.0,60.0,purple,695858.0\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: sign must be one of")):
            read_measurements(path)

    def test_nan_row_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\n"
            "789.0,1.15e7,1477.0,150.0,red,695858.0\n"
            "789.0,1.15e7,nan,nan,red,695858.0\n"
        )
        with pytest.raises(ValueError, match="nan.csv:3: shift_hz must be finite"):
            read_measurements(path)

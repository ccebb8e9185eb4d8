import ast
from pathlib import Path

import pytest

import odfprobe
from odfprobe.angular import HalfInt
from odfprobe.catalog import (LINE_COLUMNS, SHIPPED_LINES_FILE, CatalogError, FarBand,
                              TransitionLine, band_dipole_squared_au, load_line_catalog,
                              read_table, shipped_data_path)

from oracles import (N2PLUS_BAND, PiConstants, SigmaConstants, generate_lines,
                     pi_term_energy, sigma_term_energy, write_line_catalog)

HEADER = "band,branch,N_lower,J_lower_x2,J_upper_x2,wavelength_nm,einstein_A,mu_squared_au\n"
META = ("# core_polarizability_au = 7.23\n"
        "# pi_spin_orbit_A_cm1 = -74.62\n"
        "# pi_rotational_B_cm1 = 1.697425\n")


class TestTermEnergies:
    def test_sigma_origin_level(self):
        consts = SigmaConstants(b=1.9, d=6e-6, gamma=9e-3)
        assert sigma_term_energy(0, HalfInt(1), consts) == 0.0

    def test_sigma_gamma_zero_degenerate(self):
        consts = SigmaConstants(b=1.9, d=6e-6, gamma=0.0)
        up = sigma_term_energy(4, HalfInt(9), consts)
        down = sigma_term_energy(4, HalfInt(7), consts)
        assert up == pytest.approx(down, rel=1e-14)

    def test_sigma_spin_rotation_split(self):
        consts = SigmaConstants(b=1.9, gamma=0.01)
        up = sigma_term_energy(4, HalfInt(9), consts)
        down = sigma_term_energy(4, HalfInt(7), consts)
        # split = gamma (2N + 1) / 2
        assert up - down == pytest.approx(0.01 * 4.5, rel=1e-12)

    def test_sigma_validation(self):
        consts = SigmaConstants(b=1.9)
        with pytest.raises(ValueError):
            sigma_term_energy(4, HalfInt(3), consts)

    def test_pi_case_b_limit(self):
        consts = PiConstants(origin=0.0, b=1.7, a=0.0)
        # at A = 0 the eigenvalues follow B [N'(N'+1) - 1]
        for two_j in (3, 7, 11):
            x = (two_j + 1) / 2.0
            f1 = pi_term_energy(HalfInt(two_j), 1, consts)
            f2 = pi_term_energy(HalfInt(two_j), 2, consts)
            assert f1 == pytest.approx(1.7 * ((x - 1.0) * x - 1.0), rel=1e-12)
            assert f2 == pytest.approx(1.7 * (x * (x + 1.0) - 1.0), rel=1e-12)

    def test_pi_case_a_limit_split_by_a(self):
        a = -1e6
        consts = PiConstants(origin=0.0, b=1.0, a=a)
        for two_j in (3, 9):
            split = pi_term_energy(HalfInt(two_j), 2, consts) \
                - pi_term_energy(HalfInt(two_j), 1, consts)
            assert split == pytest.approx(abs(a), rel=1e-3)

    def test_pi_f1_below_f2(self):
        consts = N2PLUS_BAND.pi
        for two_j in (3, 7, 11, 17):
            assert pi_term_energy(HalfInt(two_j), 1, consts) \
                < pi_term_energy(HalfInt(two_j), 2, consts)

    def test_pi_validation(self):
        consts = PiConstants(origin=0.0, b=1.0, a=-1.0)
        with pytest.raises(ValueError):
            pi_term_energy(HalfInt(1), 1, consts)
        with pytest.raises(ValueError):
            pi_term_energy(HalfInt(4), 1, consts)
        with pytest.raises(ValueError):
            pi_term_energy(HalfInt(3), 3, consts)


class TestShippedCatalog:
    def test_anchor_lines_present(self, catalog):
        q12_7 = [l for l in catalog.lines if l.branch == "Q12" and l.j_lower == HalfInt(7)]
        q12_11 = [l for l in catalog.lines if l.branch == "Q12" and l.j_lower == HalfInt(11)]
        assert len(q12_7) == 1 and len(q12_11) == 1
        assert q12_7[0].wavelength_nm == pytest.approx(788.624, abs=0.005)
        assert q12_11[0].wavelength_nm == pytest.approx(789.1872, abs=0.005)

    def test_core_polarizability(self, catalog):
        assert catalog.core_polarizability_au == 7.23

    def test_far_bands_loaded(self, catalog):
        assert len(catalog.far_bands) == 8
        assert all(b.einstein_a > 0 for b in catalog.far_bands)

    def test_lines_cover_identification_range(self, catalog):
        assert catalog.max_n_lower >= 8
        assert all(l.n_lower % 2 == 0 for l in catalog.lines)

    def test_generator_agrees_with_shipped_csv(self, catalog):
        generated = {(l.branch, l.n_lower, l.j_lower.twice): l
                     for l in generate_lines(N2PLUS_BAND, n_max=catalog.max_n_lower)}
        assert len(generated) == len(catalog.lines)
        for line in catalog.lines:
            twin = generated[(line.branch, line.n_lower, line.j_lower.twice)]
            assert twin.wavelength_nm == pytest.approx(line.wavelength_nm, abs=0.005)
            assert twin.strength_au == pytest.approx(line.strength_au, rel=1e-4)

    def test_round_trip_write_load(self, catalog, tmp_path):
        path = tmp_path / "lines.csv"
        shipped_meta = read_table(shipped_data_path(SHIPPED_LINES_FILE), LINE_COLUMNS)[1]
        write_line_catalog(catalog.lines, path, metadata={
            "core_polarizability_au": catalog.core_polarizability_au,
            "pi_spin_orbit_A_cm1": shipped_meta["pi_spin_orbit_A_cm1"],
            "pi_rotational_B_cm1": shipped_meta["pi_rotational_B_cm1"],
        })
        again = load_line_catalog(path)
        assert len(again.lines) == len(catalog.lines)
        assert again.core_polarizability_au == catalog.core_polarizability_au
        by_key = {(l.branch, l.n_lower, l.j_lower.twice): l for l in again.lines}
        for line in catalog.lines:
            twin = by_key[(line.branch, line.n_lower, line.j_lower.twice)]
            assert twin.wavelength_nm == pytest.approx(line.wavelength_nm, abs=1e-5)


class TestIngestion:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CatalogError, match="no header"):
            load_line_catalog(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("band,branch,N_lower\n")
        with pytest.raises(CatalogError, match="missing column"):
            load_line_catalog(path)

    def test_duplicate_line_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        row = "A-X,Q12,6,11,11,789.1872,,1.0e-3\n"
        path.write_text(META + HEADER + row + row)
        with pytest.raises(CatalogError, match="duplicate line"):
            load_line_catalog(path)

    def test_both_strength_sources_rejected(self, tmp_path):
        path = tmp_path / "both.csv"
        path.write_text(META + HEADER + "A-X,Q12,6,11,11,789.1872,1.1e4,1.0e-3\n")
        with pytest.raises(CatalogError, match="exactly one"):
            load_line_catalog(path)

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "badnum.csv"
        path.write_text(META + HEADER + "A-X,Q12,6,eleven,11,789.1872,,1e-3\n")
        with pytest.raises(CatalogError, match="badnum.csv:5"):
            load_line_catalog(path)

    def test_mu_squared_rows_bypass_coupling_metadata(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("# core_polarizability_au = 1.0\n" + HEADER
                        + "A-X,Q12,6,11,11,789.1872,,2.5e-3\n")
        cat = load_line_catalog(path)
        assert cat.lines[0].strength_au == pytest.approx(2.5e-3)

    def test_einstein_rows_need_coupling_metadata(self, tmp_path):
        path = tmp_path / "noA.csv"
        path.write_text("# core_polarizability_au = 1.0\n" + HEADER
                        + "A-X,Q12,6,11,11,789.1872,1.1e4,\n")
        with pytest.raises(CatalogError, match="metadata"):
            load_line_catalog(path)

    def test_inconsistent_branch_rejected(self, tmp_path):
        path = tmp_path / "branch.csv"
        path.write_text(META + HEADER + "A-X,Q12,6,11,13,789.1872,,1e-3\n")
        with pytest.raises(CatalogError, match="inconsistent"):
            load_line_catalog(path)

    def test_short_line_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(META + HEADER + "A-X,Q12,6,11,11,789.1872,1.1e4\n")
        with pytest.raises(CatalogError, match="short.csv:5: row has fewer fields"):
            load_line_catalog(path)

    @pytest.mark.parametrize("row, message", [
        ("B-X,391.15\n", "row has fewer fields"),
        ("B-X,391.15,-1e6\n", "einstein_A must be finite and >= 0"),
        ("B-X,391.15,nan\n", "einstein_A must be finite and >= 0"),
        ("B-X,391.15,inf\n", "einstein_A must be finite and >= 0"),
        ("B-X,nan,1.05e7\n", "wavelength must be finite and > 0"),
        ("B-X,0,1.05e7\n", "wavelength must be finite and > 0"),
        ("B-X,-inf,1.05e7\n", "wavelength must be finite and > 0"),
        ("B-X,391.15,1.05e7,99\n", "row has more fields"),
    ])
    def test_bad_far_band_row_rejected(self, tmp_path, row, message):
        lines = tmp_path / "lines.csv"
        lines.write_text(META + HEADER + "A-X,Q12,6,11,11,789.1872,,1.0e-3\n")
        far = tmp_path / "far.csv"
        far.write_text("# far bands\nband,wavelength_nm,einstein_A\n"
                       "A-X,1109.14,4.3e4\n" + row)
        with pytest.raises(CatalogError, match=f"far.csv:4: .*{message}"):
            load_line_catalog(lines, far)

    @pytest.mark.parametrize("wavelength, einstein_a, message", [
        ("789.1872", "nan", "strength must be finite"),
        ("789.1872", "inf", "strength must be finite"),
        ("nan", "1.1e4", "wavelength must be"),
        ("inf", "1.1e4", "wavelength must be"),
    ])
    def test_non_finite_line_row_rejected(self, tmp_path, wavelength, einstein_a,
                                          message):
        path = tmp_path / "lines.csv"
        path.write_text(META + HEADER + f"A-X,Q12,6,11,11,{wavelength},{einstein_a},\n")
        with pytest.raises(CatalogError, match=f"lines.csv:5: .*{message}"):
            load_line_catalog(path)

    @pytest.mark.parametrize("meta, got", [
        ("", "None"), ("# core_polarizability_au = seven\n", "'seven'"),
        ("# core_polarizability_au = nan\n", "'nan'"),
        ("# core_polarizability_au = inf\n", "'inf'"),
    ])
    def test_core_polarizability_required_and_finite(self, tmp_path, meta, got):
        path = tmp_path / "lines.csv"
        path.write_text(meta + HEADER + "A-X,Q12,6,11,11,789.1872,,1.0e-3\n")
        with pytest.raises(CatalogError, match=f"lines.csv: .*core_polarizability_au, got {got}"):
            load_line_catalog(path)

    @pytest.mark.parametrize("key", ["pi_spin_orbit_A_cm1", "pi_rotational_B_cm1"])
    def test_unparsable_pi_constant_names_its_file(self, tmp_path, key):
        path = tmp_path / "lines.csv"
        meta = "".join(line if key not in line else f"# {key} = abc\n"
                       for line in META.splitlines(keepends=True))
        path.write_text(meta + HEADER + "A-X,Q12,6,11,11,789.1872,4.3e4,\n")
        with pytest.raises(CatalogError, match="lines.csv: .*must be numbers: .*'abc'"):
            load_line_catalog(path)

    def test_core_polarizability_is_read_from_the_line_file_only(self, tmp_path):
        # a far-band file's metadata was once merged into the line file's
        lines = tmp_path / "lines.csv"
        lines.write_text(HEADER + "A-X,Q12,6,11,11,789.1872,,1.0e-3\n")
        far = tmp_path / "far.csv"
        far.write_text("# core_polarizability_au = 99\nband,wavelength_nm,einstein_A\n"
                       "A-X,1109.14,4.3e4\n")
        with pytest.raises(CatalogError, match="lines.csv: .*core_polarizability_au"):
            load_line_catalog(lines, far)

    def test_unreadable_path(self):
        with pytest.raises(CatalogError, match="cannot read"):
            load_line_catalog("/nonexistent/lines.csv")


class TestStrengthConversion:
    def test_band_dipole_matches_hand_calculation(self):
        # A = omega^3 mu^2 / (3 pi eps0 hbar c^3), inverted by hand for the
        # shipped band values
        mu2 = band_dipole_squared_au(1.14e4, 789.19)
        assert mu2 == pytest.approx(2.765e-3, rel=1e-3)

    def test_transition_line_validation(self):
        with pytest.raises(CatalogError):
            TransitionLine("A-X", "Q12", 6, HalfInt(11), HalfInt(11), -1.0, 1e-3)
        with pytest.raises(CatalogError):
            TransitionLine("A-X", "Q12", 6, HalfInt(11), HalfInt(11), 789.0, -1e-3)
        for wavelength, strength in ((float("nan"), 1e-3), (789.0, float("inf"))):
            with pytest.raises(CatalogError, match="finite"):
                TransitionLine("A-X", "Q12", 6, HalfInt(11), HalfInt(11), wavelength,
                               strength)
        with pytest.raises(CatalogError):
            # J_lower inconsistent with N_lower for a
            # lower-F2 branch label
            TransitionLine("A-X", "Q12", 6, HalfInt(13), HalfInt(13), 789.0, 1e-3)

    @pytest.mark.parametrize("wavelength, einstein_a", [
        (0.0, 1e4), (-391.15, 1e4), (float("nan"), 1e4), (float("inf"), 1e4),
        (391.15, -1e6), (391.15, float("nan")), (391.15, float("inf")),
    ])
    def test_far_band_validation(self, wavelength, einstein_a):
        with pytest.raises(CatalogError, match="far band B-X"):
            FarBand("B-X", wavelength, einstein_a)
        FarBand("B-X", 391.15, 0.0)


def _imports_csv(path: Path) -> bool:
    return any(
        isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_only_the_catalog_module_imports_csv():
    # every CSV the package reads or writes goes through read_table and
    # write_table, so the table rules live in one place
    package = Path(odfprobe.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if _imports_csv(p)] \
        == ["catalog.py"]

import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from timedata_lab import analysis
from timedata_lab.analysis import DIV0, DIVERGES, LinkRecord, Sheet
from timedata_lab.errors import ChartError, CsvParseError, DomainError
from timedata_lab.linkmodel import Target, Timestamp

SUN = Target("Sun", 1.46e8, 8.3)
BASE = Timestamp(13, 35, 0)
PROGRESS = [0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96]


# Printable names without surrogates or CR; the csv writer must quote
# the comma, the quote and the LF.
_NAME = st.text(st.one_of(st.characters(exclude_categories=("Cc", "Cs")),
                          st.sampled_from(',"\n')), min_size=1, max_size=8)


def _sentinels(sheet):
    return sum(isinstance(cell, str) for r in sheet.records
               for cell in (r.nu_delta_omega_hz, r.nu_displaced_hz))


@pytest.fixture
def sun_sheet():
    return analysis.build_sheet([SUN], PROGRESS, BASE)


class TestBuildSheet:
    def test_record_per_pair(self, sun_sheet):
        assert len(sun_sheet.records) == len(PROGRESS)
        assert [r.progress_pct for r in sun_sheet.records] == PROGRESS

    def test_sixteen_percent_row(self, sun_sheet):
        row = sun_sheet.records[PROGRESS.index(16)]
        assert row.epsilon_lm == pytest.approx(1.328)
        assert str(row.t_stamp) == "13:33:40"
        assert row.nu_delta_omega_hz == pytest.approx(0.0128425, abs=1e-4)

    def test_ninety_six_percent_row(self, sun_sheet):
        row = sun_sheet.records[PROGRESS.index(96)]
        assert row.epsilon_lm == pytest.approx(7.968)
        assert row.nu_displaced_hz == pytest.approx(0.0513699, abs=1e-3)

    def test_zero_percent_sentinel(self, sun_sheet):
        row = sun_sheet.records[0]
        assert row.nu_delta_omega_hz == DIV0

    def test_divergence_sentinel(self):
        sheet = analysis.build_sheet([SUN], [50, 100], BASE)
        assert sheet.records[1].nu_displaced_hz == DIVERGES

    def test_pure_function(self, sun_sheet):
        again = analysis.build_sheet([SUN], PROGRESS, BASE)
        assert again == sun_sheet

    def test_records_are_immutable_values(self, sun_sheet):
        row = sun_sheet.records[1]
        with pytest.raises(AttributeError):
            row.epsilon_lm = 0.0
        assert LinkRecord(*row) == row
        assert row._replace(epsilon_lm=0.0) != row

    def test_fields_in_csv_column_order(self):
        assert analysis.CSV_HEADER == ("target,progress_pct,f_xy,t,epsilon_lm,"
                                       "delta_t_s,nu_dw_hz,nu_dw_x_hz")
        assert LinkRecord._fields == ("target_name", "progress_pct", "f_xy_label",
                                      "t_stamp", "epsilon_lm", "delta_t_s",
                                      "nu_delta_omega_hz", "nu_displaced_hz")

    def test_empty_inputs(self):
        with pytest.raises(DomainError):
            analysis.build_sheet([], PROGRESS, BASE)
        with pytest.raises(DomainError):
            analysis.build_sheet([SUN], [], BASE)


class TestCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        analysis.emit_csv(Sheet(records=[]), path)
        assert path.read_text() == analysis.CSV_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path, sun_sheet):
        path = tmp_path / "one.csv"
        analysis.emit_csv(Sheet(records=sun_sheet.records[:1]), path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip(self, tmp_path, sun_sheet):
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        parsed = analysis.parse_csv(path)
        assert len(parsed.records) == len(sun_sheet.records)
        for orig, back in zip(sun_sheet.records, parsed.records):
            assert back.target_name == orig.target_name
            assert back.t_stamp == orig.t_stamp
            assert back.f_xy_label == orig.f_xy_label
            for attr in ("progress_pct", "epsilon_lm", "delta_t_s",
                         "nu_delta_omega_hz", "nu_displaced_hz"):
                a, b = getattr(orig, attr), getattr(back, attr)
                if isinstance(a, str):
                    assert b == a
                else:
                    assert b == pytest.approx(a, rel=1e-5)

    def test_sentinel_literal_in_file(self, tmp_path, sun_sheet):
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        first_data_row = path.read_text().splitlines()[1]
        assert "#Div/0!" in first_data_row

    # A lone surrogate fails to encode; an inf cell fails to format.
    @pytest.mark.parametrize("spoil,message", [
        (lambda r: r._replace(target_name="A\udc80B"),
         r"text cannot be encoded as UTF-8: '\\udc80'"),
        (lambda r: r._replace(epsilon_lm=math.inf), "result not finite: inf"),
    ], ids=["surrogate name", "inf cell"])
    def test_failed_write_keeps_old_file(self, tmp_path, sun_sheet, spoil, message):
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        old = path.read_bytes()
        records = sun_sheet.records[:-1] + [spoil(sun_sheet.records[-1])]
        with pytest.raises(DomainError, match=f"^{message}$"):
            analysis.emit_csv(Sheet(records=records), path)
        assert path.read_bytes() == old

    # The csv writer leaves a CR unquoted, and the reader ends a row there.
    def test_carriage_return_in_name_refused(self, tmp_path):
        sheet = analysis.build_sheet([Target("A\rB", 1.46e8, 8.3)], PROGRESS, BASE)
        path = tmp_path / "cr.csv"
        with pytest.raises(DomainError, match="carriage return"):
            analysis.emit_csv(sheet, path)
        assert not path.exists()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(names=st.lists(_NAME, min_size=1, max_size=3),
           progress=st.lists(st.floats(0, 100), max_size=4))
    def test_emit_parse_emit_same_bytes(self, names, progress):
        targets = [Target(name, 1.46e8, 8.3) for name in names]
        sheet = analysis.build_sheet(targets, [0.0, *progress, 100.0], BASE)
        with tempfile.TemporaryDirectory() as directory:
            first, second = Path(directory, "a.csv"), Path(directory, "b.csv")
            analysis.emit_csv(sheet, first)
            parsed = analysis.parse_csv(first)
            analysis.emit_csv(parsed, second)
            assert second.read_bytes() == first.read_bytes()
            assert analysis.parse_csv(second) == parsed
        assert _sentinels(parsed) == _sentinels(sheet) >= 2 * len(names)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER + "\nSun,1,f,13:00:00,1,60\n")
        with pytest.raises(CsvParseError) as exc:
            analysis.parse_csv(path)
        assert exc.value.line_number == 2

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER +
                        "\nSun,1,f,ab:cd:ef,1,60,0.1,0.1\n")
        with pytest.raises(CsvParseError) as exc:
            analysis.parse_csv(path)
        assert exc.value.line_number == 2

    # Each record here spans three file lines: the name and the label hold an LF.
    def test_error_names_the_file_line(self, tmp_path):
        sheet = analysis.build_sheet([Target("A\nB", 1e8, 8.3)], [8, 16, 24], BASE)
        path = tmp_path / "lf.csv"
        analysis.emit_csv(sheet, path)
        lines = path.read_text().split("\n")
        assert lines[6].startswith('B",13:')
        lines[6] = lines[6].replace("13:", "ab:", 1)
        path.write_text("\n".join(lines))
        with pytest.raises(CsvParseError) as exc:
            analysis.parse_csv(path)
        assert str(exc.value) == "line 7: expected HH:MM:SS, got 'ab:33:40'"

    def test_empty_file_reports_line_one(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError, match="^line 1: missing or wrong header row$"):
            analysis.parse_csv(path)

    @pytest.mark.parametrize("row", ["Sun,1,f,13:00:00,inf,60,0.1,0.1",
                                     "Sun,1,f,13:00:00,1,60,nan,0.1"],
                             ids=["epsilon_lm inf", "nu_dw_hz nan"])
    def test_non_finite_cell_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER + "\nSun,1,f,13:00:00,1,60,0.1,0.1\n"
                        + row + "\n")
        with pytest.raises(CsvParseError, match="not finite") as exc:
            analysis.parse_csv(path)
        assert exc.value.line_number == 3

    def test_unknown_sentinel(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER +
                        "\nSun,1,f,13:00:00,1,60,#What!,0.1\n")
        with pytest.raises(CsvParseError):
            analysis.parse_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(CsvParseError):
            analysis.parse_csv(path)


class TestRadarChart:
    def test_too_few_records(self, tmp_path, sun_sheet):
        with pytest.raises(ChartError):
            analysis.render_radar_chart(Sheet(records=sun_sheet.records[:2]),
                                        tmp_path / "c.svg")

    def test_well_formed_xml(self, tmp_path, sun_sheet):
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(sun_sheet, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_one_closed_polyline_per_attribute(self, tmp_path, sun_sheet):
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(sun_sheet, path)
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 4
        for poly in polylines:
            points = poly.get("points").split()
            assert points[0] == points[-1]  # closed loop

    def test_sentinel_markers_present(self, tmp_path, sun_sheet):
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(sun_sheet, path)
        assert 'class="sentinel"' in path.read_text()

    def test_deterministic_bytes(self, tmp_path, sun_sheet):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        analysis.render_radar_chart(sun_sheet, p1)
        analysis.render_radar_chart(sun_sheet, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # A lone surrogate cannot come from a UTF-8 file, only from a caller.
    @pytest.mark.parametrize("name", ["A\x01B", "\ufffe", "A\udc80B"])
    def test_name_xml_cannot_carry(self, tmp_path, name):
        records = [LinkRecord(name, float(p), "f", Timestamp(12, 0, 0),
                              1.0, 60.0, 0.1, 0.2) for p in range(3)]
        path = tmp_path / "chart.svg"
        with pytest.raises(ChartError, match="XML cannot carry"):
            analysis.render_radar_chart(Sheet(records=records), path)
        assert not path.exists()

    def test_all_sentinel_attribute_omitted(self, tmp_path):
        records = [LinkRecord("X", float(p), "f", Timestamp(12, 0, 0),
                              1.0, 60.0, DIV0, 0.1 * (p + 1))
                   for p in range(3)]
        path = tmp_path / "chart.svg"
        with pytest.warns(UserWarning, match="sentinel"):
            analysis.render_radar_chart(Sheet(records=records), path)
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.parse(path).getroot()
        assert len(root.findall(f"{ns}polyline")) == 3

    def test_constant_attribute_fixed_radius(self, tmp_path):
        records = [LinkRecord("X", float(p), "f", Timestamp(12, 0, 0),
                              2.0, 60.0, 0.5, 0.1 * (p + 1))
                   for p in range(3)]
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(Sheet(records=records), path)
        # constant series normalizes to the full radius on every spoke
        assert path.exists()

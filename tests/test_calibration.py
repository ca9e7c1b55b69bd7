import io

import numpy as np
import pytest

from vaxalloc import (
    CountryRecord,
    DataFormatError,
    ModelInputError,
    builtin_dataset_path,
    calibrate,
    load_countries,
    parse_countries,
)

HEADER = "country,employment,telework_share\n"


def test_parses_single_row():
    records = parse_countries(io.StringIO(HEADER + "SE,5000000,0.45\n"))
    assert records == [CountryRecord("SE", 5_000_000.0, 0.45)]


def test_preserves_row_order():
    records = parse_countries(io.StringIO(HEADER + "RO,8000000,0.31\nSE,5000000,0.45\n"))
    assert [r.country_code for r in records] == ["RO", "SE"]


def test_empty_stream_yields_empty_list():
    assert parse_countries(io.StringIO("")) == []


def test_header_only_yields_empty_list():
    assert parse_countries(io.StringIO(HEADER)) == []


def test_blank_lines_are_skipped():
    records = parse_countries(io.StringIO(HEADER + "\nSE,5000000,0.45\n\n"))
    assert len(records) == 1


def test_rejects_wrong_header():
    with pytest.raises(DataFormatError, match="header"):
        parse_countries(io.StringIO("code,jobs,share\nSE,5000000,0.45\n"))


def test_rejects_out_of_range_share():
    with pytest.raises(DataFormatError, match="telework_share") as err:
        parse_countries(io.StringIO(HEADER + "RO,8000000,1.2\n"))
    assert "row 2" in str(err.value)


def test_rejects_nonpositive_employment():
    with pytest.raises(DataFormatError, match="employment"):
        parse_countries(io.StringIO(HEADER + "RO,0,0.31\n"))


def test_rejects_non_numeric_field():
    with pytest.raises(DataFormatError, match="employment") as err:
        parse_countries(io.StringIO(HEADER + "SE,many,0.45\n"))
    assert "row 2" in str(err.value)


def test_rejects_wrong_field_count():
    with pytest.raises(DataFormatError, match="row 3"):
        parse_countries(io.StringIO(HEADER + "SE,5000000,0.45\nRO,8000000\n"))


def test_rejects_bad_country_code():
    with pytest.raises(DataFormatError, match="country code"):
        parse_countries(io.StringIO(HEADER + "R0,8000000,0.31\n"))


def test_rejects_duplicate_country():
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_countries(io.StringIO(HEADER + "SE,5000000,0.45\nSE,1,0.5\n"))


def test_record_validates_on_construction():
    with pytest.raises(DataFormatError):
        CountryRecord("SWE", 100.0, 0.4)
    with pytest.raises(DataFormatError):
        CountryRecord("SE", 100.0, 1.0)
    with pytest.raises(DataFormatError):
        CountryRecord("SE", 100.0, 0.0)


class TestCalibrate:
    def test_reference_country(self):
        profile = calibrate(CountryRecord("SE", 100.0, 0.6), gamma=0.8)
        assert profile.labor_white == 60.0
        assert profile.labor_blue == 40.0
        assert profile.alpha_white == 1.0
        assert profile.alpha_blue == pytest.approx(1.5, rel=1e-15)
        assert profile.gamma == 0.8

    def test_symmetric_share_means_equal_coefficients(self):
        profile = calibrate(CountryRecord("SE", 100.0, 0.5))
        assert profile.alpha_blue == 1.0

    def test_production_balance_is_exact(self):
        profile = calibrate(CountryRecord("SE", 100.0, 0.6))
        assert profile.alpha_blue * profile.labor_blue == pytest.approx(
            profile.alpha_white * profile.labor_white, rel=1e-12
        )

    def test_labor_pools_sum_to_employment(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            total = float(np.exp(rng.uniform(np.log(10.0), np.log(1e7))))
            share = float(rng.uniform(0.01, 0.99))
            profile = calibrate(CountryRecord("ZZ", total, share))
            assert profile.labor_white + profile.labor_blue == total
            balance = abs(
                profile.alpha_blue * profile.labor_blue
                - profile.alpha_white * profile.labor_white
            )
            assert balance <= 1e-12 * profile.alpha_white * profile.labor_white

    def test_rejects_bad_gamma(self):
        record = CountryRecord("SE", 100.0, 0.6)
        for gamma in (0.0, 1.2):
            with pytest.raises(ModelInputError):
                calibrate(record, gamma)

    @pytest.mark.parametrize("employment, share", [
        (5e-324, 0.3),                  # white-collar pool underflows
        (5e-324, 0.9999999999999999),   # blue-collar pool rounds to zero
        (1000.0, 1e-20),                # share below the spacing of employment
    ])
    def test_zero_pool_is_a_data_error_naming_the_country(self, employment, share):
        with pytest.raises(DataFormatError, match="^country XA: a labor pool rounds to zero$"):
            calibrate(CountryRecord("XA", employment, share))


def test_non_utf8_file_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(HEADER.encode() + b"X\xe9,1000,0.4\n")
    with pytest.raises(DataFormatError, match="is not UTF-8") as err:
        load_countries(path)
    assert str(path) in str(err.value)


def test_byte_order_mark_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + HEADER.encode() + b"SE,5000000,0.45\n")
    message = ("row 1: file starts with a UTF-8 byte-order mark (U+FEFF); "
               "save it as plain UTF-8")
    with pytest.raises(DataFormatError) as err:
        load_countries(path)
    assert str(err.value) == message
    # only a mark at the very start is named; elsewhere it is a bad header
    with pytest.raises(DataFormatError, match="row 2: expected header"):
        parse_countries(io.StringIO("\n\ufeff" + HEADER))


class TestBuiltinDataset:
    def test_loads_and_validates(self):
        records = load_countries(builtin_dataset_path())
        assert len(records) == 7
        codes = [r.country_code for r in records]
        assert len(set(codes)) == len(codes)
        shares = [r.telework_share for r in records]
        assert min(shares) == 0.30
        assert max(shares) == 0.55

    def test_codes_are_private_use_range(self):
        # synthetic countries use the user-assigned XA..XZ code space
        for record in load_countries(builtin_dataset_path()):
            assert record.country_code.startswith("X")

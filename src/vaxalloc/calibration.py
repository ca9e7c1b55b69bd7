"""Country labor records and economy calibration.

A country is described by its total employment and the share of jobs that
can be done from home.  Calibration splits employment into the two labor
pools on that share, normalizes the white-collar input coefficient to one,
and backs out the blue-collar coefficient so that pre-epidemic production
is exactly balanced across tasks.

The package ships a small synthetic dataset (telework shares 0.30-0.55,
country codes in the user-assigned XA..XZ range) purely for illustration
and reproducible tests; real data is supplied by the user in the same CSV
format: header ``country,employment,telework_share``, comma separated,
UTF-8 without a byte-order mark, plain decimal points.  A country code is
two code points that are both letters (``str.isalpha``), such as ``SE`` or
``ÄÖ``; codes are not normalized, so a letter written as a base letter plus
a combining mark is refused.
"""

from __future__ import annotations

import csv
import io
import math
import os
from pathlib import Path
from typing import IO, Iterable, Union

from .model import EconomyProfile, ModelInputError, _Frozen

CSV_HEADER = ("country", "employment", "telework_share")

DEFAULT_GAMMA = 0.8

MAX_DATASET_BYTES = 16 * 2**20  # load_countries refuses a longer file without reading it all


class DataFormatError(ValueError):
    """A country dataset does not conform to the documented CSV schema."""


class CountryRecord(_Frozen):
    """One ingestion row: identifier, employment and telework share."""

    country_code: str       # two-letter identifier
    employment_total: float # heads, > 0
    telework_share: float   # fraction of jobs doable from home, in (0, 1)

    def __post_init__(self) -> None:
        code = self.country_code
        if not (isinstance(code, str) and len(code) == 2 and code.isalpha()):
            raise DataFormatError(f"country code must be two letters, got {code!r}")
        if not (math.isfinite(self.employment_total) and self.employment_total > 0):
            raise DataFormatError(
                f"employment must be a positive number, got {self.employment_total!r}"
            )
        if not (0.0 < self.telework_share < 1.0):
            raise DataFormatError(
                f"telework_share must lie strictly between 0 and 1, "
                f"got {self.telework_share!r}"
            )


def _parse_float(raw: str, row_number: int, field: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataFormatError(f"row {row_number}: field {field!r} is not a number: {raw!r}") from None


def _rows(reader):
    """The rows of a ``csv.reader``, each with its record number from 1, and its errors (a
    field over the csv field limit) data errors naming the record they are in."""
    row_number = 0
    try:
        for row_number, row in enumerate(reader, start=1):
            yield row_number, row
    except csv.Error as exc:
        raise DataFormatError(f"row {row_number + 1}: {exc}") from None


def parse_countries(source: Union[IO[str], Iterable[str]]) -> list[CountryRecord]:
    """Parse the country CSV into validated records, preserving row order.

    The first non-blank row must be the ``country,employment,telework_share``
    header; a completely empty stream yields an empty list.  Raises
    DataFormatError naming the offending row and field for malformed rows,
    fields over the csv field limit, out-of-range values and duplicate
    country codes.
    """
    records: list[CountryRecord] = []
    seen: set[str] = set()
    header_checked = False
    for row_number, row in _rows(csv.reader(source)):
        if not row:
            continue
        if not header_checked:
            if tuple(cell.strip() for cell in row) != CSV_HEADER:
                if row_number == 1 and row[0].startswith("\ufeff"):
                    raise DataFormatError("row 1: file starts with a UTF-8 byte-order mark "
                                          "(U+FEFF); save it as plain UTF-8")
                raise DataFormatError(
                    f"row {row_number}: expected header {','.join(CSV_HEADER)!r}, "
                    f"got {','.join(row)!r}"
                )
            header_checked = True
            continue
        if len(row) != len(CSV_HEADER):
            raise DataFormatError(
                f"row {row_number}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        code = row[0].strip()
        employment = _parse_float(row[1].strip(), row_number, "employment")
        share = _parse_float(row[2].strip(), row_number, "telework_share")
        try:
            record = CountryRecord(code, employment, share)
        except DataFormatError as exc:
            raise DataFormatError(f"row {row_number}: {exc}") from None
        if record.country_code in seen:
            raise DataFormatError(
                f"row {row_number}: duplicate country code {record.country_code!r}"
            )
        seen.add(record.country_code)
        records.append(record)
    return records


def load_countries(path: Union[str, Path]) -> list[CountryRecord]:
    """Read and parse a country CSV file of at most ``MAX_DATASET_BYTES``, which must be
    UTF-8: its bytes are read and decoded whole, so invalid UTF-8 anywhere is reported
    before any row."""
    descriptor = os.open(path, os.O_RDONLY)
    try:  # os.read(n) allocates n bytes: 64 KiB a read, until EOF or a byte past the limit
        data = bytearray()
        while chunk := os.read(descriptor, min(1 << 16, MAX_DATASET_BYTES + 1 - len(data))):
            data += chunk
    except OSError as exc:  # a directory opens and fails here: name it, as open does
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(descriptor)
    if len(data) > MAX_DATASET_BYTES:
        raise DataFormatError(f"dataset {path} is longer than the largest accepted, "
                              f"{MAX_DATASET_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"dataset {path} is not UTF-8 text ({exc.reason})") from None
    return parse_countries(io.StringIO(text, newline=""))


def builtin_dataset_path() -> Path:
    """Location of the packaged synthetic country dataset."""
    return Path(__file__).parent / "data" / "synthetic_countries.csv"


def calibrate(record: CountryRecord, gamma: float = DEFAULT_GAMMA) -> EconomyProfile:
    """Turn a country record into a balanced economy.

    White-collar labor is the teleworkable share of employment, blue-collar
    labor the remainder (the two add up to the total exactly).  With the
    white-collar coefficient normalized to one, the blue-collar coefficient
    L_w / L_b makes both tasks supply identical output before the epidemic.
    A record whose split rounds a pool to zero (a share below about 1e-16,
    or subnormal employment), or whose employment is above 1e154, the
    largest that the commands are checked at, raises DataFormatError naming
    its country.
    """
    if not (0.0 < gamma <= 1.0):
        raise ModelInputError(f"gamma must lie in (0, 1], got {gamma!r}")
    if record.employment_total > 1e154:
        raise DataFormatError(f"country {record.country_code}: employment "
                              f"{record.employment_total!r} is above the largest accepted, 1e154")
    labor_blue = record.employment_total - record.telework_share * record.employment_total
    # complementing twice makes the pools sum to the total exactly
    labor_white = record.employment_total - labor_blue
    if not (labor_white > 0.0 and labor_blue > 0.0):
        raise DataFormatError(f"country {record.country_code}: a labor pool rounds to zero")
    return EconomyProfile(
        labor_white=labor_white,
        labor_blue=labor_blue,
        alpha_white=1.0,
        alpha_blue=labor_white / labor_blue,
        gamma=gamma,
    )

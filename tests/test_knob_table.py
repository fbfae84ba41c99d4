"""The knob table in ``docs/tuning.md`` matches the signatures.

Every row of the table under "## The knobs at a glance" names one or
more knobs (backticked, in the first column) and the entry points that
take them (the "Where" column).  Each entry point a row names must
accept at least one of the row's knobs as a parameter or dataclass
field, so a knob deleted from the code cannot live on in the docs.
The other way round, every parameter of ``PartialStore(...)``,
``serve(...)`` and ``serve_runtime(...)`` is a knob of a row that names
that entry point, or on its short list of non-knobs — so a knob added
to any of them cannot go undocumented.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.core.api import serve, serve_runtime
from repro.fx.store import PartialStore
from repro.runtime.service import RuntimeConfig
from repro.storage.catalog import Database

TUNING = Path(__file__).resolve().parents[1] / "docs" / "tuning.md"
HEADING = "## The knobs at a glance"

# Entry point, as the "Where" column spells it -> the names it takes.
ENTRY_POINTS = {
    "serve(...)": set(inspect.signature(serve).parameters),
    "serve_runtime(...)": set(inspect.signature(serve_runtime).parameters),
    "RuntimeConfig": {spec.name for spec in dataclasses.fields(RuntimeConfig)},
    "PartialStore(...)": set(inspect.signature(PartialStore).parameters),
    "Database(...)": set(inspect.signature(Database).parameters),
}


def knob_rows():
    """``(knobs, where)`` per row of the first table under the heading:
    the backticked names of the first column, and the "Where" column's
    text."""
    text = TUNING.read_text(encoding="utf-8").split(HEADING, 1)[1]
    table = re.search(r"^\|.*?(?=^[^|])", text, re.MULTILINE | re.DOTALL)
    rows = []
    for line in table.group(0).splitlines()[2:]:    # past header, rule
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((re.findall(r"`([^`]+)`", cells[0]), cells[1]))
    return rows


ROWS = knob_rows()


def test_the_table_is_found():
    assert len(ROWS) >= 4


@pytest.mark.parametrize(
    "knobs, where", ROWS, ids=[" / ".join(knobs) for knobs, _ in ROWS]
)
def test_every_named_entry_point_takes_a_knob_of_its_row(knobs, where):
    named = re.findall(r"`([^`]+)`", where)
    assert named, f"row {knobs} names no entry point"
    for entry in named:
        assert entry in ENTRY_POINTS, f"unknown entry point {entry!r}"
        assert set(knobs) & ENTRY_POINTS[entry], (
            f"{entry} takes none of {knobs}"
        )


# Parameters that tune nothing: the handles every facade takes.  An
# entry point with none is listed too, so its every parameter is
# checked against the table.
NOT_KNOBS = {
    "PartialStore(...)": set(),
    "serve(...)": {"db", "telemetry"},
    "serve_runtime(...)": {"db", "telemetry", "telemetry_port"},
}


@pytest.mark.parametrize("entry", sorted(NOT_KNOBS))
def test_every_parameter_is_a_knob_of_the_table(entry):
    documented = {
        knob
        for knobs, where in ROWS
        if f"`{entry}`" in where
        for knob in knobs
    }
    undocumented = ENTRY_POINTS[entry] - documented - NOT_KNOBS[entry]
    assert undocumented == set()

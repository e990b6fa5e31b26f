"""Report outputs pinned byte for byte against recorded runs.

Each file under `data/` is the stdout of
`tcbounds grid --m 2..7 --n 1..5 --output json --field F`, recorded from the
bar-span engine: every report over Q, Z_2 and Z_3 up to n = 5, so any change
in a bound, a diagnostic, a warning or the JSON layout shows here.
"""

from pathlib import Path

import pytest

from tcbounds.cli import EXIT_PINCHED, EXIT_UNPINCHED, main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("field,code", [
    ("q", EXIT_PINCHED),
    ("zp:2", EXIT_UNPINCHED),  # odd m degrades mod 2 and stays unpinched
    ("zp:3", EXIT_PINCHED),
])
def test_grid_json_matches_recorded_output(capsys, field, code):
    expected = (DATA / f"grid_{field.replace(':', '')}.json").read_text()
    assert main(["grid", "--m", "2..7", "--n", "1..5", "--output", "json",
                 "--field", field]) == code
    assert capsys.readouterr().out == expected

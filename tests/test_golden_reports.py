"""Report and span outputs pinned byte for byte against recorded runs.

Each `data/grid_F.json` is the stdout of
`tcbounds grid --m 2..7 --n 1..5 --output json --field F`, recorded from the
bar-span engine: every report over Q, Z_2 and Z_3 up to n = 5, so any change
in a bound, a diagnostic, a warning or the JSON layout shows here.
Each `data/grid_n6_F.json` is the stdout of
`tcbounds grid --m 2..7 --n 6 --output json --field F`, recorded (with the
`--max-n 6` the command then needed; no command has that option now) while
reports still closed the top weight by searching every square-free product
of 2n - 2 barred generators, before the decone check took that over.

Each `data/barspan_F.jsonl` holds the stdout of
`tcbounds barspan --n N --m M --output json --field F` for n = 1..4 and
m = 2..5, in that order, recorded from the echelon that reduced rows in
`Fraction` and field arithmetic.  The span's own reference oracle shares the
echelon, so these files are what pins the span dimensions and witnesses
against a fault in it.  `data/barspan_n5_zp2.json` adds
`tcbounds barspan --n 5 --m 3 --output json --field zp:2`, recorded from the
echelon that reduced the full vectors bar(S): in characteristic 2 the two
eigenspaces of the Koszul swap coincide, which the half-coordinate echelon
must survive.  `data/barspan_n5_q.json` and `data/barspan_n5_zp3.json` hold
`tcbounds barspan --n 5 --m 2 --output json --field F` over Q and Z_3,
recorded from the span built in all of H (x) H, before it was split at the
decone.
"""

from pathlib import Path

import pytest

from tcbounds.cli import EXIT_PINCHED, EXIT_UNPINCHED, main
from tcbounds.tensor import TensorSquare

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


@pytest.mark.parametrize("field,code", [
    ("q", EXIT_PINCHED),
    ("zp:2", EXIT_UNPINCHED),
    ("zp:3", EXIT_PINCHED),
])
def test_grid_n6_json_matches_recorded_output(capsys, unlisted_basis, field, code):
    # no cell builds the n = 6 span, which would take minutes
    expected = (DATA / f"grid_n6_{field.replace(':', '')}.json").read_text()
    assert main(["grid", "--m", "2..7", "--n", "6", "--output", "json",
                 "--field", field]) == code
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("field", ["q", "zp:2", "zp:3"])
def test_barspan_json_matches_recorded_output(capsys, field):
    expected = (DATA / f"barspan_{field.replace(':', '')}.jsonl").read_text()
    got = []
    for n in range(1, 5):
        for m in range(2, 6):
            assert main(["barspan", "--n", str(n), "--m", str(m), "--output", "json",
                         "--field", field]) == 0
            got.append(capsys.readouterr().out)
    assert "".join(got) == expected


def test_barspan_n5_char2_matches_recorded_output(capsys):
    expected = (DATA / "barspan_n5_zp2.json").read_text()
    assert main(["barspan", "--n", "5", "--m", "3", "--output", "json",
                 "--field", "zp:2"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("field", ["q", "zp:3"])
def test_barspan_n5_even_m_matches_recorded_output(capsys, field):
    expected = (DATA / f"barspan_n5_{field.replace(':', '')}.json").read_text()
    assert main(["barspan", "--n", "5", "--m", "2", "--output", "json",
                 "--field", field]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("m,field", [(2, "q"), (2, "zp:3"), (3, "zp:2")])
def test_barspan_n5_split_route_reads_its_witness_off_the_span(capsys, monkeypatch, m, field):
    # where the decone splits, the span is built in the quotient square only,
    # and the witness is read off its last level: nothing in H (x) H is
    # formed, so no product has a coordinate u (x) v with e_12 in u or v
    operators, routes = TensorSquare._operators, []

    def quotient_only(self, split):
        routes.append(split)
        one, gens, times_bar, ranks = operators(self, split)
        mons = self.pres.full_basis()
        held = [w[:1] == ((1, 2),) for w in mons]
        last = len(mons) ** 2 - 1

        def checked(vec, g):
            prod = times_bar(vec, g)
            for r in prod:
                iu, iv = divmod(last - r, len(mons))
                assert not (held[iu] or held[iv]), "the split route multiplied out in H (x) H"
            return prod

        return one, gens, checked, ranks

    monkeypatch.setattr(TensorSquare, "_operators", quotient_only)
    expected = (DATA / f"barspan_n5_{field.replace(':', '')}.json").read_text()
    assert main(["barspan", "--n", "5", "--m", str(m), "--output", "json",
                 "--field", field]) == 0
    assert capsys.readouterr().out == expected
    assert routes == [True]

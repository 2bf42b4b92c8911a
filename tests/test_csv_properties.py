"""Properties of the panel CSV path: write -> shuffle and annotate -> load."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_pvar.errors import ParseError
from causal_pvar.io import fmt_float, load_panel_csv, write_panel_csv
from causal_pvar.panel import PanelDataset

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1e300, -1e300, 3.0, -7.0, 1e16, 0.1]
BAD_TOKENS = ["oops", "1_0", "١", "1e", "--1", "", "0x1", "1,5"]


@st.composite
def panels(draw):
    n, t, m = draw(st.integers(2, 8)), draw(st.integers(5, 30)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, t, m)) * 10.0 ** rng.integers(-5, 6, size=(n, t, m))
    special = rng.random((n, t, m)) < 0.3
    values[special] = rng.choice(SPECIAL, size=special.sum())
    names = tuple(f"v{k}" for k in range(m))
    return PanelDataset(values, draw(st.integers(0, m - 1)), names)


def reference_csv(panel):
    """The per-value writer: one fmt_float call per value."""
    lines = [f"# policies={panel.n_policies}", "unit,time," + ",".join(panel.variable_names)]
    for i in range(panel.n_units):
        for t in range(panel.n_times):
            vals = ",".join(fmt_float(v) for v in panel.values[i, t])
            lines.append(f"{i + 1},{t + 1},{vals}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def scrambled(text, rng):
    """The rows of ``text`` shuffled, with blank and comment lines interleaved and
    the annotation moved after the header.  Returns (lines, index of each row)."""
    annotation, header, *rows = text.splitlines()
    fillers = ["", "   ", "\t", "# a comment", "  # indented, with a #", "#"]
    out = ["", "# leading comment", header]
    stale = None  # a "# policies=99" line that the real annotation overrides
    for j in rng.permutation(len(rows)):
        while rng.random() < 0.2:
            out.append(fillers[rng.integers(len(fillers))])
        if stale is None and rng.random() < 0.1:
            stale = len(out)
            out.append("# policies=99")
        out.append(rows[j])
    at = int(rng.integers((stale or 2) + 1, len(out) + 1))
    out.insert(at, annotation)
    where = [i for i, line in enumerate(out) if line[:1].isdigit()]
    return out, where


@settings(max_examples=40, deadline=None)
@given(panel=panels(), seed=st.integers(0, 2**32 - 1))
def test_shuffled_annotated_csv_round_trips(tmp_path_factory, panel, seed):
    path = tmp_path_factory.mktemp("csv") / "panel.csv"
    write_panel_csv(panel, path)
    assert path.read_bytes() == reference_csv(panel)
    lines, _ = scrambled(path.read_text(), np.random.default_rng(seed))
    path.write_text("\n".join(lines) + "\n")
    back = load_panel_csv(path)
    assert back.values.tobytes() == panel.values.tobytes()  # bit-exact, -0.0 included
    assert back.variable_names == panel.variable_names
    assert back.n_policies == panel.n_policies


@settings(max_examples=40, deadline=None)
@given(panel=panels(), seed=st.integers(0, 2**32 - 1), bad=st.sampled_from(BAD_TOKENS))
def test_corrupted_token_reports_its_line(tmp_path_factory, panel, seed, bad):
    path = tmp_path_factory.mktemp("csv") / "panel.csv"
    write_panel_csv(panel, path)
    rng = np.random.default_rng(seed)
    lines, where = scrambled(path.read_text(), rng)
    row = where[rng.integers(len(where))]
    toks = lines[row].split(",")
    field = int(rng.integers(len(toks)))
    toks[field] = bad
    lines[row] = ",".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_panel_csv(path)
    assert err.value.line_number == row + 1
    if bad == "1,5":
        expected = f"expected {len(toks)} fields, got {len(toks) + 1}"
    elif field < 2:
        expected = "unit and time must be integers"
    else:
        expected = "values must be decimal floats"
    assert str(err.value) == f"line {row + 1}: {expected}"


def test_comments_are_found_past_the_first_read_block(tmp_path):
    # about 1.7 MB, so the scan for '#' lines reads more than one block
    values = np.random.default_rng(3).standard_normal((400, 100, 2))
    path = tmp_path / "panel.csv"
    write_panel_csv(PanelDataset(values, 1, ("w", "y")), path)
    lines = path.read_text().splitlines()
    lines.insert(39_000, "  # policies=0")
    path.write_text("\n".join(lines) + "\n")
    assert load_panel_csv(path).n_policies == 0
    lines[39_500] += " # trailing note"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_panel_csv(path)
    assert str(err.value) == "line 39501: values must be decimal floats"

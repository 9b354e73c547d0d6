"""Grid exports (`harmonics --grid`): the streamed renderer against the
per-cell reference of `helpers.reference_grid_export`, and the memory an
export holds while it writes."""

import contextlib
import io
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from casimir import evalcore
from casimir.cli import main
from casimir.models import bianchi2_model, so3_model
from helpers import reference_grid_export, tree_evaluate

# argv of a family and its builder, the coordinates in chart order, and those
# its components depend on: a --grid for each of these, maybe for the others
SOURCES = {
    "so3-one-member": (("so3", "--l", "1", "--m", "0"), lambda: so3_model().scalar_family(1, m_values=[0], seed=0),
                       ("theta", "phi"), {"theta"}),
    "so3": (("so3", "--l", "1"), lambda: so3_model().scalar_family(1, seed=0), ("theta", "phi"), {"theta", "phi"}),
    "point-series": (("bianchi2", "--point-series", "--n", "1", "--m=-1", "--nu", "1/2"),
                     lambda: bianchi2_model().point_series(1, -1, "1/2", seed=0), ("v", "y", "z"), {"v", "y", "z"}),
}


def _ends(coord):
    if coord == "theta":  # keeps to the box's side of sin(theta) = 0
        return st.floats(0.2, 2.9)
    # a -0 start with a lower end gives a -0 coordinate
    return st.one_of(st.just(-0.0), st.floats(-0.85, 0.85))


def _axis_spec(coord):
    """(a, b, n) with b = a (a repeated or single-point axis) about a third of the time."""
    ends = _ends(coord)
    return st.tuples(ends, st.one_of(ends, ends, st.none()), st.integers(1, 4)).map(
        lambda t: (t[0], t[0] if t[1] is None else t[1], t[2]))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grid")


@given(st.sampled_from(sorted(SOURCES)), st.sampled_from(["json", "csv"]), st.data())
@settings(max_examples=60, deadline=None)
def test_export_matches_per_cell_reference(out_dir, source, fmt, data):
    argv, build, coords, needed = SOURCES[source]
    names = [c for c in coords if c in needed or data.draw(st.booleans(), label=f"grid {c}")]
    specs = {c: data.draw(_axis_spec(c), label=c) for c in names}
    flags = [arg for c in data.draw(st.permutations(names), label="flag order")
             for arg in ("--grid", "{}={!r}:{!r}:{}".format(c, *specs[c]))]
    axes = [[a + (b - a) * j / max(n - 1, 1) for j in range(n)] for a, b, n in map(specs.get, names)]

    fam = build()
    labels = sorted(fam.components)
    values = [tuple(tree_evaluate(fam.components[label], dict(zip(names, pt))) for label in labels)
              for pt in itertools.product(*axes)]
    doc = {**fam.to_json(), "seed": 0}
    columns = names + [f"{label}.{part}" for label in labels for part in ("re", "im")]
    want = reference_grid_export(doc, columns, axes, values, fmt)

    cmd = ["harmonics", *argv, "--seed", "0", "--format", fmt, *flags]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(cmd) == 0
    assert out.getvalue() == want
    path = out_dir / f"export.{fmt}"
    assert main([*cmd, "--out", str(path)]) == 0
    assert path.read_bytes() == want.encode()


def test_export_streams_its_rows(tmp_path, monkeypatch):
    """The 100 x 100 so3 JSON export holds no row table and no document
    string.  Besides its float values (taken as computed here, so that no
    tracing slows the loop nest) it allocated 14.5 MB at once when it
    rendered the whole document, and now 1.2 MB, most of it the points of
    the chart check."""
    fam = so3_model().scalar_family(2, seed=0)  # loads every module the export uses
    program = evalcore.compile_expr(tuple(fam.components[k] for k in sorted(fam.components)),
                                    ["theta", "phi"], grid=True)
    values = program.run([[a + (b - a) * j / 99 for j in range(100)] for a, b in ((0.05, 3.05), (0.1, 6.1))])
    run = evalcore.Program.run
    monkeypatch.setattr(evalcore.Program, "run", lambda self, axes: values if self == program else run(self, axes))
    tracemalloc.start()
    try:
        assert main(["harmonics", "so3", "--l", "2", "--seed", "0", "--grid", "theta=0.05:3.05:100",
                     "--grid", "phi=0.1:6.1:100", "--out", str(tmp_path / "grid.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"

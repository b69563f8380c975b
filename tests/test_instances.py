import pytest

from geomis import (
    ArrivalSequence,
    Ball,
    FirstFit,
    HyperRectangle,
    InstanceFormatError,
    OracleRefusal,
    level_graph_gen,
    load_instance,
    random_balls_gen,
    random_rects_gen,
    run_online,
    save_instance,
    save_transcript,
)


def roundtrip(stream, tmp_path, name="inst.txt"):
    path = tmp_path / name
    save_instance(stream, path)
    return load_instance(path)


def test_roundtrip_balls_bit_exact(tmp_path):
    stream = random_balls_gen(20, dim=3, box_side=9.87654321, seed=13)
    assert roundtrip(stream, tmp_path) == stream


def test_roundtrip_rects_bit_exact(tmp_path):
    stream = random_rects_gen(14, dim=2, m=5.0, box_side=17.3, seed=4)
    assert roundtrip(stream, tmp_path) == stream


def test_roundtrip_abstract(tmp_path):
    stream = level_graph_gen(5, seed=1)
    assert roundtrip(stream, tmp_path) == stream


def test_roundtrip_empty_geometric(tmp_path):
    stream = ArrivalSequence(events=(), dim=3)
    got = roundtrip(stream, tmp_path)
    assert got == stream


def test_roundtrip_empty_abstract(tmp_path):
    stream = ArrivalSequence(events=(), dim=None)
    got = roundtrip(stream, tmp_path)
    assert len(got) == 0 and got.dim is None


def test_parse_comments_and_blanks(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(
        "# leading comment\n"
        "geomis-instance v1  # magic\n"
        "\n"
        "dim -\n"
        "vertex 0 -\n"
        "vertex 1 0   # touches the first\n"
        "vertex 2 0,1\n"
    )
    stream = load_instance(path)
    assert stream.adjacency() == [{1, 2}, {0, 2}, {0, 1}]


def test_dimension_one_loads(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text("geomis-instance v1\ndim 1\nball 0 1\nball 1.5 1\nball 4 1\n")
    stream = load_instance(path)
    assert stream.dim == 1
    assert stream.adjacency() == [{1}, {0}, set()]


def test_missing_magic_line():
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "bad.txt"
        p.write_text("dim 3\nball 0 0 0 1\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(p)
        assert err.value.line_no == 1
        assert str(err.value) == "line 1: first line must be 'geomis-instance v1'"


@pytest.mark.parametrize(
    "body,message",
    [
        ("", "line 1: second line must be 'dim <d>' or 'dim -'"),
        ("ball 0 0 1\n", "line 2: second line must be 'dim <d>' or 'dim -'"),
        ("dimension 3\n", "line 2: second line must be 'dim <d>' or 'dim -'"),
        ("dimwit -\n", "line 2: second line must be 'dim <d>' or 'dim -'"),
        ("dim x\n", "line 2: bad dimension 'x'"),
        ("dim 0\n", "line 2: dimension must be >= 1, got 0"),
        ("dim 3 4\n", "line 2: dim line needs exactly one value"),
        ("dim 3\nsphere 0 0 0 1\n", "line 3: unknown line tag 'sphere'"),
        ("dim 3\nball 0 0 1\n", "line 3: ball line needs 3 coordinates plus a radius"),
        ("dim 3\nball 0 0 zero 1\n", "line 3: expected a number, got 'zero'"),
        ("dim 3\nball 0 0 0 -1\n", "line 3: ball radius must be positive, got -1.0"),
        ("dim 2\nball 0 inf 1\n", "line 3: non-finite coordinate in (0.0, inf)"),
        ("dim 3\nrect 0 1 0\n", "line 3: rect line needs 6 values (lo/hi per axis)"),
        ("dim 2\nrect 0 1 zero 1\n", "line 3: expected a number, got 'zero'"),
        (
            "dim 3\nrect 0 1 0 1 1 0\n",
            "line 3: degenerate box: lo[2]=1.0 must be < hi[2]=0.0",
        ),
        ("dim -\nvertex 1 -\n", "line 3: vertex id 1 out of order; expected 0"),
        ("dim -\nvertex x -\n", "line 3: bad vertex id 'x'"),
        ("dim -\nvertex 0\n", "line 3: vertex line needs an id and a neighbor list (or -)"),
        (
            "dim -\nvertex 0 -\nvertex 1 2\n",
            "line 4: neighbor 2 has not arrived before vertex 1",
        ),
        (
            "dim -\nvertex 0 -\nvertex 1 1\n",
            "line 4: neighbor 1 has not arrived before vertex 1",
        ),
        ("dim -\nvertex 0 -\nvertex 1 0,a\n", "line 4: bad neighbor list '0,a'"),
        ("dim 2\nvertex 0 -\n", "line 3: vertex lines require 'dim -'"),
        ("dim -\nball 0 0 1\n", "line 3: ball lines require a numeric dim"),
        ("dim -\nrect 0 1 0 1\n", "line 3: rect lines require a numeric dim"),
        (
            "dim 2\nball 0 0 1\nrect 0 1 0 1\n",
            "line 4: mixed 'ball' and 'rect' lines in one file",
        ),
    ],
)
def test_malformed_files_carry_line_numbers(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text("geomis-instance v1\n" + body)
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert str(err.value) == message
    assert message.startswith(f"line {err.value.line_no}: ")


def test_vertex_line_id_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("geomis-instance v1\ndim -\nvertex 0 -\nvertex 5 0\n")
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert err.value.line_no == 4
    assert str(err.value) == "line 4: vertex id 5 out of order; expected 1"


def test_transcript_is_loadable_and_replayable(tmp_path):
    stream = random_balls_gen(15, dim=2, box_side=6.0, seed=6)
    result = run_online(FirstFit(), stream)
    path = tmp_path / "run.txt"
    save_transcript(stream, result, path)
    text = path.read_text()
    assert f"# accepted {result.size} of {len(stream)}" in text
    assert "# accepted" in text and "# rejected" in text
    reloaded = load_instance(path)
    assert reloaded == stream
    assert run_online(FirstFit(), reloaded) == result


def test_mixed_precision_floats_roundtrip(tmp_path):
    vals = (0.1 + 0.2, 1e-17, 123456789.123456789, 2.0**-45)
    objs = [
        Ball((vals[0], vals[1]), 1.0),
        Ball((vals[2], vals[3]), 1.0),
    ]
    stream = ArrivalSequence.from_objects(objs)
    got = roundtrip(stream, tmp_path)
    for a, b in zip(got.events, stream.events):
        assert a.payload.center == b.payload.center


def test_rect_roundtrip_interleaved_bounds(tmp_path):
    rect = HyperRectangle((0.25, -1.5), (3.75, 2.5))
    stream = ArrivalSequence.from_objects([rect])
    path = tmp_path / "r.txt"
    save_instance(stream, path)
    body = [
        ln for ln in path.read_text().splitlines() if ln.startswith("rect")
    ]
    assert body == ["rect 0.25 3.75 -1.5 2.5"]
    assert load_instance(path) == stream


def test_dim_line_past_the_limit_refused(tmp_path):
    path = tmp_path / "empty.gis"
    path.write_text("geomis-instance v1\ndim 1000\n")
    assert load_instance(path).dim == 1000
    for dim in (1001, 10**21):
        path.write_text(f"geomis-instance v1\ndim {dim}\nball 0.0 1.0\n")
        with pytest.raises(OracleRefusal, match=f"^dim {dim} exceeds the limit 1000$"):
            load_instance(path)

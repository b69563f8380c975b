import pytest

from geomis import (
    ArrivalSequence,
    Ball,
    FirstFit,
    HyperRectangle,
    InstanceFormatError,
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


def test_missing_magic_line():
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "bad.txt"
        p.write_text("dim 3\nball 0 0 0 1\n")
        with pytest.raises(InstanceFormatError) as err:
            load_instance(p)
        assert err.value.line_no == 1


@pytest.mark.parametrize(
    "body,bad_line",
    [
        ("dim x\n", 2),
        ("dim 3\nsphere 0 0 0 1\n", 3),
        ("dim 3\nball 0 0 1\n", 3),
        ("dim 3\nball 0 0 zero 1\n", 3),
        ("dim 3\nball 0 0 0 -1\n", 3),
        ("dim 3\nrect 0 1 0\n", 3),
        ("dim 3\nrect 0 1 0 1 1 0\n", 3),
        ("dim -\nvertex 1 -\n", 3),
        ("dim -\nvertex 0 -\nvertex 1 2\n", 4),
        ("dim -\nvertex 0 -\nvertex 1 1\n", 4),
        ("dim 2\nvertex 0 -\n", 3),
        ("dim -\nball 0 0 1\n", 3),
        ("dim 2\nball 0 0 1\nrect 0 1 0 1\n", 4),
    ],
)
def test_malformed_files_carry_line_numbers(tmp_path, body, bad_line):
    path = tmp_path / "bad.txt"
    path.write_text("geomis-instance v1\n" + body)
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert err.value.line_no == bad_line


def test_vertex_line_id_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("geomis-instance v1\ndim -\nvertex 0 -\nvertex 5 0\n")
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert err.value.line_no == 4


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

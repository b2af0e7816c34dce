"""The README's library tour runs, and gives the values its comments state;
its CLI example prints what the README shows."""

import ast
import re
from pathlib import Path

import pytest

from anchorlap import RectBox
from anchorlap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def tour():
    """Each top-level expression of the tour's code block, by its source
    text, mapped to its value; the other statements are run in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), README.name, "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), README.name, "exec"), namespace)
    return values


def test_anchor_count(tour):
    assert tour["layout.anchor_count"] == 24000


def test_closed_form_emo(tour):
    value = tour["emo_closed_form(EmoQuery(face_side=16.0, anchor_stride=16.0)).value"]
    assert repr(value).startswith("0.40860")


def test_face_table(tour):
    n, x, scale = tour["len(faces), faces.x, faces.scale"]
    assert n == 2
    assert x.tolist() == [10.0, 5.0]
    assert repr(float(scale[0])).startswith("34.64") and scale[1] == 8.0
    assert tour["faces.image_ids[faces.image[1]], faces[1]"] == (
        "a.jpg", RectBox(x=5.0, y=5.0, w=8.0, h=8.0)
    )


def test_bucket_counts(tour):
    assert tour["bucket_stats(faces, layout).counts"] == (0, 1, 0, 1, 0, 0, 0, 0)


def test_match_result(tour):
    matched = tour["result.assigned_count"]
    compensated = tour["compensate_hard_faces(result, faces, layout, cfg).assigned_count"]
    assert matched.tolist() == [4, 1] and matched.dtype == "int64"
    assert compensated.tolist() == [4, 5] and compensated.dtype == "int64"


def test_cli_example(capsys):
    text = README.read_text(encoding="utf-8")
    command, *table = re.search(r"```text\n(anchorlap emo .*?)```", text, re.S).group(1).splitlines()
    argv = ["emo", "--scales", "16,32", "--strides", "8,16"]
    assert command.split() == ["anchorlap", *argv]
    assert main(argv) == 0
    assert len(table) == 5
    assert capsys.readouterr().out == "".join(line + "\n" for line in table)

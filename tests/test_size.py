"""The source size report of tools/size.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
size = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(size)

MODULES = sorted((ROOT / "src" / "hetquant").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_line_classes_add_up_to_the_line_count(path):
    counts, _ = size.module_size(path)
    lines = len(path.read_text(encoding="utf-8").splitlines())
    assert sum(counts[name] for name in size.CLASSES) == lines


def test_classes_and_long_functions(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# A comment.\n"
        "X = 1  # code with a trailing comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return [\n"
        "        # a comment inside brackets\n"
        "        1,\n"
        "    ]\n"
        "\n"
        "\n"
        "class C:\n"
        "    def g(self):\n"
        + "        y = 0\n" * size.LONG_FUNCTION
    )
    counts, long_functions = size.module_size(source)
    assert counts == {"code": 7 + size.LONG_FUNCTION, "docstring": 3, "comment": 2, "blank": 6}
    assert long_functions == [("sample.C.g", size.LONG_FUNCTION + 1)]

"""fileio.json_object, the one decoder of JSON from outside the program, and
the guard that keeps it the only one."""

import ast
from pathlib import Path

import pytest

from lammsc import fileio

# one of each fault that outside JSON can carry; every decoding site is
# tested against all four
DECODE_FAULTS = {"bad-utf8": b'{"key": "\xff"}', "invalid-json": b"{key: 1}",
                 "nested-too-deep": b"[" * 10 ** 5, "not-an-object": b"[1]"}


class TestJsonObject:
    def test_object_parsed_from_bytes_or_text(self):
        blob = '{"a": [1, "é"], "b": {}}'
        expected = {"a": [1, "é"], "b": {}}
        assert fileio.json_object(blob.encode("utf-8"), "x") == expected
        assert fileio.json_object(blob, "x") == expected

    @pytest.mark.parametrize("fault", list(DECODE_FAULTS))
    def test_fault_is_one_value_error_naming_what(self, fault):
        with pytest.raises(ValueError, match="^the thing: "):
            fileio.json_object(DECODE_FAULTS[fault], "the thing")

    def test_bytes_must_be_utf8(self):
        # json.loads alone would detect UTF-16 and accept it
        with pytest.raises(ValueError, match="invalid JSON"):
            fileio.json_object('{"a": 1}'.encode("utf-16"), "x")


def json_decode_calls(tree: ast.AST) -> list[int]:
    """Lines that call json.load, json.loads or a .json() method, or import
    load or loads from json."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "json" or (
                    func.attr in ("load", "loads") and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names):
            lines.append(node.lineno)
    return lines


class TestSingleDecoder:
    def test_only_fileio_decodes_json(self):
        found = {}
        for path in sorted(Path(fileio.__file__).parent.glob("*.py")):
            lines = json_decode_calls(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                found[path.name] = lines
        assert list(found) == ["fileio.py"], found

    @pytest.mark.parametrize("source", [
        "json.load(fh)", "json.loads(blob)", "resp.json()", "from json import loads"])
    def test_guard_sees_each_call(self, source):
        assert json_decode_calls(ast.parse(source)) == [1]

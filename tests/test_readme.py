"""The README's examples are documentation that must run: execute every
python block, in order, in one namespace, and every `subfbm` command of the
sh blocks, in order, in one scratch directory. The names its module map
cites must exist."""

import builtins
import importlib
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from subfbm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_cli_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    commands = 0
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        # files the examples read are written by heredocs: cat > FILE <<EOF
        for name, body in re.findall(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", block, re.M | re.S):
            Path(name).write_text(body)
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("subfbm "):
                res = runner.invoke(main, shlex.split(line)[1:])
                assert res.exit_code == 0, (line, res.output)
                commands += 1
    assert commands


def _module_map_names(text):
    """(module, name) for each identifier the module map cites: a dotted
    `module._NAME`, or a bare name that contains "_" or starts with a
    capital (builtins aside), which belongs to its row's module."""
    names = []
    for row, contents in re.findall(r"^\| `subfbm\.(\w+)`\s*\|(.*)\|$", text, re.M):
        for token in re.findall(r"`([^`]+)`", contents):
            dotted = re.fullmatch(r"(\w+)\.(_\w+)", token)
            if dotted:
                names.append(dotted.groups())
            elif (re.fullmatch(r"\w+", token) and ("_" in token or token[0].isupper())
                  and not hasattr(builtins, token)):
                names.append((row, token))
    return names


def test_module_map_names_resolve():
    names = _module_map_names(README.read_text())
    assert len(names) >= 10
    missing = [f"subfbm.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"subfbm.{module}"), name)]
    assert not missing

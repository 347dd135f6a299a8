"""Config file loading with list-position include directives.

A config file is UTF-8 text; a byte that is not UTF-8 is a ``ParseError``
at its line and column.

A list element of the form ``{include: <relative path>}`` is replaced by the
parsed contents of the referenced file, resolved relative to the including
file.  If the included file holds a list, it is spliced in place.

Files are parsed by libyaml (``yaml.CSafeLoader``) when PyYAML was built
with it, else by PyYAML's pure-Python ``SafeLoader``.  Both use the same
constructor and resolver, so they build the same trees and mark an error at
the same line and column; only the wording of the problem may differ.
"""

from __future__ import annotations

from pathlib import Path

import yaml


#: the YAML loader of config files
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigLoadError(Exception):
    pass


class FileNotFound(ConfigLoadError):
    def __init__(self, path: Path):
        self.path = path
        super().__init__(f"config file not found: {path}")


class ParseError(ConfigLoadError):
    def __init__(self, path: Path, line: int, column: int, problem: str):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}:{line}:{column}: {problem}")


class IncludeCycle(ConfigLoadError):
    def __init__(self, chain: list[Path]):
        self.chain = chain
        super().__init__(
            "include cycle: " + " -> ".join(str(p) for p in chain)
        )


def _decode(path: Path) -> str:
    """The text of the file at ``path``, which must be UTF-8; a
    ``ParseError`` marks the first byte that is not."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        column = len(data[line_start:exc.start].decode("utf-8")) + 1
        problem = f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, column, problem) from None


def _parse_file(path: Path):
    if not path.is_file():
        raise FileNotFound(path)
    text = _decode(path)
    try:
        return yaml.load(text, Loader=SAFE_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = (mark.line + 1) if mark else 0
        column = (mark.column + 1) if mark else 0
        raise ParseError(path, line, column, exc.problem or str(exc)) from exc
    except yaml.YAMLError as exc:
        raise ParseError(path, 0, 0, str(exc)) from exc


def _is_include(node) -> bool:
    return isinstance(node, dict) and set(node.keys()) == {"include"}


def _resolve(node, base_dir: Path, stack: tuple[Path, ...]):
    if isinstance(node, dict):
        return {k: _resolve(v, base_dir, stack) for k, v in node.items()}
    if isinstance(node, list):
        out = []
        for item in node:
            if _is_include(item):
                included = _load(base_dir / str(item["include"]), stack)
                if isinstance(included, list):
                    out.extend(included)
                else:
                    out.append(included)
            else:
                out.append(_resolve(item, base_dir, stack))
        return out
    return node


def _load(path: Path, stack: tuple[Path, ...]):
    path = path.resolve()
    if path in stack:
        raise IncludeCycle(list(stack) + [path])
    tree = _parse_file(path)
    return _resolve(tree, path.parent, stack + (path,))


def load_config(path: str | Path):
    """Parse a config file, resolving include directives recursively."""
    return _load(Path(path), ())

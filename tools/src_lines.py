"""Count the lines of the specgap sources, per module and in total.

Physical lines are the lines of each file.  Code lines are the lines that
hold a token other than a comment, a newline, an indent or a dedent, and
that are not part of a module, class or function docstring.

Run from anywhere: ``python3 tools/src_lines.py``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "specgap"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """Physical and code lines of one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    code: set[int] = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    total_physical = total_code = 0
    print("module\tphysical\tcode")
    for path in sorted(SRC.glob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{path.name}\t{physical}\t{code}")
    print(f"total\t{total_physical}\t{total_code}")


if __name__ == "__main__":
    main()

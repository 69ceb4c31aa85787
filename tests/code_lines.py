"""Count the code lines of the package: blank, comment and docstring lines are not counted.

A line counts when some token other than a comment or a docstring sits on
it; a multi-line string that is no docstring counts every line it spans.
Prints one count per file and the total.

    python tests/code_lines.py [directory]    # default: src/msdiagram
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_starts(tree) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add((body[0].lineno, body[0].col_offset))
    return out


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_starts(ast.parse(source, str(path)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    folder = Path(argv[0]) if argv else ROOT / "src" / "msdiagram"
    total = 0
    for path in sorted(folder.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

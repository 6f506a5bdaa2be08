"""Count the lines and the code lines of the package source.

    python3 tools/src_lines.py [ROOT]

For each file under ROOT/src/mimo_ee (ROOT defaults to this checkout) and
for their total, prints the line count and the code-line count. A code line
is a physical line that holds a token other than a comment, a newline or an
indent token, or a docstring: a statement that is string literals alone. A
token that spans lines, such as a multi-line string argument, makes each of
its lines a code line.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source text."""
    code, statement = set(), []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1]
    package = root / "src" / "mimo_ee"
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted(package.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the code-only lines of Python files.

A line counts when it holds part of a statement: blank lines, comment
lines and the lines of a docstring (the leading string of a module,
class or function) do not.  Prints each file's count and the total.
A file that cannot be read or parsed stops the count with one
``error: <path>: <reason>`` line on stderr and exit status 1.

    python scripts/code_lines.py src/teleportsim/*.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize

# tokens that carry no code of their own
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def _reason(exc: Exception) -> str:
    if isinstance(exc, OSError):
        return exc.strerror or str(exc)
    if isinstance(exc, SyntaxError):
        return f"{exc.msg} (line {exc.lineno})"
    if isinstance(exc, tokenize.TokenError):
        message, (line, _) = exc.args
        return f"{message} (line {line})"
    return str(exc)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                count = code_lines(handle.read())
        except (OSError, UnicodeDecodeError, SyntaxError, tokenize.TokenError) as exc:
            print(f"error: {path}: {_reason(exc)}", file=sys.stderr)
            return 1
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

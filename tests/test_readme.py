"""The README's library quick tour runs, and its result comments hold."""

import ast
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def literal_comments(source: str) -> dict[int, object]:
    """Line number -> value of each comment that parses as a Python literal,
    whole or up to its first ': ' (as in '# None: T1 = T2')."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string[1:].strip()
        for candidate in (text, text.split(": ", 1)[0]):
            try:
                out[tok.start[0]] = ast.literal_eval(candidate)
                break
            except (ValueError, SyntaxError):
                pass
    return out


def test_literal_comment_finder():
    source = "x = 1  # 5-vertex kite\nx  # (1, None)\nx  # None: empty\nx  # 'M3'\nx  # a matrix\n"
    assert literal_comments(source) == {2: (1, None), 3: None, 4: "M3"}


def test_quick_tour_comments_hold():
    source = quick_tour()
    expected = literal_comments(source)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if stmt.end_lineno in expected:
            assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == expected[stmt.end_lineno], ast.unparse(stmt)
            checked.append(stmt.end_lineno)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    # the dims and flags of both chains, the None witness and the rendered type
    assert sorted(checked) == sorted(expected) and len(checked) == 6

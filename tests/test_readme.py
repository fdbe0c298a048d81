"""The README's quick start runs as written and shows the values it claims."""

import ast
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        # a value the README shows: "# 50", "# True, ...", "# 2: ..."
        shown = re.match(r"#\s*(\d+|True|False)\b", comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and shown:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(shown.group(1)), ast.unparse(stmt)
            checked.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == [50, 15, 15, 2, True, True, 7]

"""README's Library example prints what the comments beside it say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_its_comments_say():
    [example] = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.split("# ", 1)[1] for line in example.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected

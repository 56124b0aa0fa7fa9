"""README's Python examples run as doctests, so they cannot drift from the
package they show."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text,
                              re.MULTILINE | re.DOTALL))
    assert blocks
    for block in blocks:
        line = text.count("\n", 0, block.start(1))
        test = doctest.DocTestParser().get_doctest(block[1], {}, "README.md",
                                                   str(README), line)
        assert test.examples, f"README line {line + 1}: a block without >>>"
        report = []
        result = doctest.DocTestRunner().run(test, out=report.append)
        assert result.failed == 0, "".join(report)

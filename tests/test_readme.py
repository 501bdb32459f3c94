"""The README's Python blocks run as written, against the installed package.

The blocks are executed in order in one namespace, as a reader pasting them
into one session would run them; a renamed import or a moved name fails here.
"""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as stream:
        return re.findall(r"^```python\n(.*?)^```$", stream.read(), flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)
    assert namespace["record"].b > 1.0

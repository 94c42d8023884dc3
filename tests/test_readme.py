"""Runs every python block of README.md, in order, in one namespace.

Collected by pytest, and also a script of its own: ``python
tests/test_readme.py`` needs numpy and hopfront only.
"""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    namespace = {"__name__": "readme"}
    for block in re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        line = text.count("\n", 0, block.start(1))  # so a traceback names the README line
        exec(compile("\n" * line + block.group(1), str(README), "exec"), namespace)


if __name__ == "__main__":
    test_readme_python_blocks_run()
    print("README python blocks ran")

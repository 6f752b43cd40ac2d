"""The package's public names agree: ``crtnd.__all__`` resolves, and the
README's library example uses only names in it."""

import re
from pathlib import Path

import crtnd

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block under the README's ``## Library`` heading."""
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no Library code block"
    return match.group(1)


def test_every_exported_name_resolves():
    assert [name for name in crtnd.__all__ if not hasattr(crtnd, name)] == []


def test_readme_library_example_uses_exported_names():
    paths = re.findall(r"\bcrtnd((?:\.\w+)+)", library_example())
    assert paths
    unexported, unresolved = [], []
    for path in paths:
        names = path.lstrip(".").split(".")
        if names[0] not in crtnd.__all__:
            unexported.append(path)
        obj = crtnd
        for name in names:
            obj = getattr(obj, name, None)
        if obj is None:
            unresolved.append(path)
    assert unexported == [] and unresolved == []

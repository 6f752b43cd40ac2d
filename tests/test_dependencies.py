"""Importing the command line loads nothing outside the standard library
and numpy, the one dependency ``pyproject.toml`` declares."""

import json
import subprocess
import sys

# what a fresh interpreter loads for ``code``, less what it had loaded
# before (site hooks may preload third-party modules), by top-level name
PROBE = """
import json, sys
before = set(sys.modules)
{code}
loaded = {{name.split(".")[0] for name in set(sys.modules) - before}}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def third_party_modules(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_imports_only_numpy():
    assert third_party_modules("import crtnd.cli") == ["crtnd", "numpy"]


def test_a_third_party_import_is_found():
    assert "scipy" in third_party_modules("import crtnd.cli\nimport scipy.stats")

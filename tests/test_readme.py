"""README names only what the package has.

Outside fenced code blocks, every backticked `module.name` must resolve in that
`userkit` module, and every backticked call `name(...)` in some `userkit`
module.  Math notation written as a call (`exp(...)`, `spread(O)`, ...) is
listed in MATH_CALLS.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import userkit

README = Path(__file__).resolve().parent.parent / "README.md"
MATH_CALLS = {"H", "H_gamma", "diag", "exp", "f", "i", "len", "ln", "s", "sin", "sinc", "spread"}
MODULES = {m.name: importlib.import_module(f"userkit.{m.name}") for m in pkgutil.iter_modules(userkit.__path__)}


def code_spans(text):
    """The inline code spans of Markdown text, fenced blocks left out and
    whitespace (a span may wrap a line) collapsed."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def unresolved(text):
    """The `module.name` and `name(` references of text's code spans that no
    userkit module defines; a `name(` after a dot is a method, not checked."""
    missing = set()
    for span in code_spans(text):
        for mod, name in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span):
            if mod in MODULES and not hasattr(MODULES[mod], name):
                missing.add(f"{mod}.{name}")
        for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", span):
            if name not in MATH_CALLS and not any(hasattr(m, name) for m in MODULES.values()):
                missing.add(f"{name}(")
    return missing


def test_readme_names_resolve():
    assert unresolved(README.read_text()) == set()


def test_guard_sees_deleted_names():
    # a span may wrap a line; a fenced block is not checked
    text = "Use `unitary_power(su, eta)` or `channels.haar_unitary` and\n`oracle.compare(a,\nb)`.\n"
    assert unresolved(text) == {"unitary_power(", "channels.haar_unitary", "oracle.compare"}
    assert unresolved("```python\nchannels.haar_unitary(d)\n```\n`sear.estimate_noise_strength` `exp(x)`") == set()

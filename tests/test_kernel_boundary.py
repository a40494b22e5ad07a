"""The kernel boundary: the refresh decision, the payloads and the ladder's
mode stay inside ``hequel.kernel``.

Every module of ``src/hequel`` is parsed, and a use of a guarded name
outside the modules allowed it fails the test: a call to ``refresh`` or a
read of ``_payload`` outside the kernel, ``_reveal`` outside the kernel,
decryption and serialization, and ``MODE_CIRCULAR`` or ``MODE_LEVELED``
outside the kernel and ``crypto``, which maps mode names to them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hequel"

# guarded name -> (modules allowed to use it, whether only a call counts)
RULES = {
    "refresh": ({"kernel.py"}, True),
    "_payload": ({"kernel.py"}, False),
    "_reveal": ({"kernel.py", "crypto.py", "serial.py"}, False),
    "MODE_CIRCULAR": ({"kernel.py", "crypto.py"}, False),
    "MODE_LEVELED": ({"kernel.py", "crypto.py"}, False),
}


def _uses(tree):
    """(name, line, called) for every name, attribute and imported name."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        yield name, node.lineno, id(node) in called


def _breaches(path: Path):
    for name, line, called in _uses(ast.parse(path.read_text(), str(path))):
        rule = RULES.get(name)
        if rule and path.name not in rule[0] and (called or not rule[1]):
            yield f"{path.name}:{line}: {name}"


def test_guarded_names_stay_inside_their_modules():
    modules = sorted(SRC.glob("*.py"))
    assert {"kernel.py", "circuits.py", "relalg.py"} <= {p.name
                                                          for p in modules}
    assert [b for p in modules for b in _breaches(p)] == []


def test_the_walk_sees_each_guarded_use(tmp_path):
    # the rules fire on each form of use, so an empty result above is not
    # a walk that saw nothing
    probe = tmp_path / "relalg.py"
    probe.write_text(
        "from hequel.kernel import MODE_LEVELED, _reveal\n"
        "from hequel import kernel\n"
        "kernel.refresh(b)\n"
        "b._payload\n"
        "kernel.MODE_CIRCULAR\n"
        "refresh = kernel.settle\n")
    assert sorted(_breaches(probe)) == [
        "relalg.py:1: MODE_LEVELED", "relalg.py:1: _reveal",
        "relalg.py:3: refresh", "relalg.py:4: _payload",
        "relalg.py:5: MODE_CIRCULAR"]

"""The kernel boundary: the refresh decision, the payloads and the ladder's
mode stay inside ``hequel.kernel``.

Every module of ``src/hequel`` is parsed, and a use of a guarded name
outside the modules allowed it fails the test: a call to ``refresh``
outside the kernel, a read of ``_payload`` outside the kernel and
``tape`` (which reads the inputs of a replayed circuit, a fetch
compaction or a sort network, and the symbolic payloads of its dry
run), ``_reveal`` outside the kernel and
decryption (serialization reads payloads through ``_wire_parts``),
``MODE_CIRCULAR`` or ``MODE_LEVELED``
outside the kernel and ``crypto``, which maps mode names to them, and
the wire helpers that read payloads, mint wire nonces or know the nonce
stream's increment, ``_fresh_wire_nonces``, ``_wire_parts``,
``_nonce_run``, ``_nonce_steps`` and ``_nonce_walk``, outside the kernel
and serialization.

The same parse finds every name a module imports and never reads, such
as an import left behind when the code that read it went; the one kept
on purpose is listed in ``UNREAD_IMPORTS``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hequel"

# guarded name -> (modules allowed to use it, whether only a call counts)
RULES = {
    "refresh": ({"kernel.py"}, True),
    "_payload": ({"kernel.py", "tape.py"}, False),
    "_reveal": ({"kernel.py", "crypto.py"}, False),
    "MODE_CIRCULAR": ({"kernel.py", "crypto.py"}, False),
    "MODE_LEVELED": ({"kernel.py", "crypto.py"}, False),
    "_fresh_wire_nonces": ({"kernel.py", "serial.py"}, False),
    "_wire_parts": ({"kernel.py", "serial.py"}, False),
    "_nonce_run": ({"kernel.py", "serial.py"}, False),
    "_nonce_steps": ({"kernel.py", "serial.py"}, False),
    "_nonce_walk": ({"kernel.py", "serial.py"}, False),
}

# (module, imported name) pairs that no code of the module reads: the
# benchmark's tracer wraps ``protocol.oblivious_sort_rows`` by name
UNREAD_IMPORTS = {("protocol.py", "oblivious_sort_rows")}


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
        "refresh = kernel.settle\n"
        "kernel._fresh_wire_nonces(s, 3)\n"
        "from hequel.kernel import _wire_parts\n"
        "kernel._nonce_run(z, 8)\n"
        "kernel._nonce_steps(zs)\n"
        "from hequel.kernel import _nonce_walk\n")
    assert sorted(_breaches(probe)) == [
        "relalg.py:10: _nonce_steps", "relalg.py:11: _nonce_walk",
        "relalg.py:1: MODE_LEVELED", "relalg.py:1: _reveal",
        "relalg.py:3: refresh", "relalg.py:4: _payload",
        "relalg.py:5: MODE_CIRCULAR", "relalg.py:7: _fresh_wire_nonces",
        "relalg.py:8: _wire_parts", "relalg.py:9: _nonce_run"]


def _unread_imports(path: Path):
    """(module, name) for each name an import binds in ``path`` that no
    ``Name`` node of the module reads; ``__future__`` imports bind
    none."""
    tree = ast.parse(path.read_text(), str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                if name not in read:
                    yield path.name, name


def test_no_module_imports_a_name_it_never_reads():
    found = {u for p in sorted(SRC.glob("*.py")) for u in _unread_imports(p)}
    assert found == UNREAD_IMPORTS


def test_the_import_walk_sees_each_unread_form(tmp_path):
    probe = tmp_path / "relalg.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from hequel.kernel import lift, lifts, settle as s\n"
        "from hequel import tape\n"
        "lifts(tape)\n")
    assert sorted(_unread_imports(probe)) == [
        ("relalg.py", "lift"), ("relalg.py", "os"), ("relalg.py", "s"),
        ("relalg.py", "system")]

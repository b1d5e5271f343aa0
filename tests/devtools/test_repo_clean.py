"""The lint gate over the real tree, and proof the gate has teeth.

Acceptance criteria for the determinism lints:

* ``python -m repro.devtools.lint src/ tests/`` exits 0 on this tree,
  with every suppression carrying a reason;
* deleting the ``wireless/channel.py`` seed-requirement fix (or
  re-introducing any seedless RNG in library code) makes it exit
  non-zero again.

And for the suite itself: no module under ``tests/`` imports a ``test_*``
module or edits ``sys.path``.  Shared helpers live in importable modules
(``tests.reference``, ``tests.fixtures.regenerate``, ``tests.conftest``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.devtools.lint import lint_paths, lint_source, main

REPO_ROOT = Path(__file__).resolve().parents[2]
CHANNEL_PY = REPO_ROOT / "src" / "repro" / "wireless" / "channel.py"


class TestTreeIsClean:
    def test_src_and_tests_lint_clean(self):
        report = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        assert report.files_checked > 100
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )

    def test_cli_gate_exits_zero(self, capsys):
        assert main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]) == 0
        capsys.readouterr()

    def test_every_suppression_carries_a_reason(self):
        report = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        assert report.suppressions, "expected a non-empty suppression inventory"
        for sup in report.suppressions:
            assert sup.reason.strip(), f"{sup.path}:{sup.line} has no reason"
            assert sup.rules, f"{sup.path}:{sup.line} names no rules"


class TestGateHasTeeth:
    def test_channel_seed_requirement_is_load_bearing(self):
        """Reverting the channel.py fix back to a seedless fallback must
        re-trip DET001 — i.e. the lint really guards that line."""
        source = CHANNEL_PY.read_text(encoding="utf-8")
        fixed = "self._rng = new_rng(rng)"
        assert fixed in source, "channel.py no longer contains the seeded path"
        reverted = source.replace(
            fixed, "self._rng = np.random.default_rng()", 1
        )
        assert reverted != source
        report = lint_source(reverted, CHANNEL_PY.as_posix())
        assert "DET001" in {f.rule for f in report.findings}

    def test_current_channel_source_is_clean(self):
        report = lint_source(
            CHANNEL_PY.read_text(encoding="utf-8"), CHANNEL_PY.as_posix()
        )
        assert report.findings == []

    def test_channel_rejects_seedless_construction_at_runtime(self):
        """The runtime half of the satellite fix: no silent OS-entropy
        fallback survives in WirelessChannel itself."""
        from repro.wireless.channel import WirelessChannel

        with pytest.raises(ValueError, match="explicit seed or Generator"):
            WirelessChannel(distances_m=[10.0, 25.0])

    def test_reintroduced_seedless_rng_fails_gate(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "sneaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import numpy as np\n\n\n"
            "def jitter() -> float:\n"
            "    return float(np.random.default_rng().standard_normal())\n"
        )
        assert main([str(tmp_path)]) == 1

    def test_unreasoned_suppression_fails_gate(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "sneaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import numpy as np\n\n"
            "RNG = np.random.default_rng()  # repro: disable=DET001\n"
        )
        assert main([str(tmp_path)]) == 1


def is_test_module(module: str) -> bool:
    return any(part.startswith("test_") for part in module.split("."))


def suite_entanglements(path: Path, root: Path = REPO_ROOT) -> list[str]:
    """Each import of a ``test_*`` module and each use of ``sys.path`` in
    the module at ``path``, as ``path:line: what``."""
    where = path.relative_to(root).as_posix()
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), where)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] if is_test_module(base) else [
                ".".join(filter(None, (base, alias.name))) for alias in node.names
            ]
            if base == "sys" and "path" in {alias.name for alias in node.names}:
                found.append(f"{where}:{node.lineno}: imports sys.path")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "path"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            found.append(f"{where}:{node.lineno}: uses sys.path")
            continue
        else:
            continue
        found += [
            f"{where}:{node.lineno}: imports test module {module}"
            for module in modules
            if is_test_module(module)
        ]
    return found


class TestSuiteStandsAlone:
    """Test modules do not import each other or edit the import path.
    Shared helpers live in importable modules instead; two fixture
    ``regenerate`` modules put on ``sys.path`` once shadowed each other."""

    def test_no_test_module_imports_another_or_edits_sys_path(self):
        modules = sorted((REPO_ROOT / "tests").rglob("*.py"))
        assert len(modules) > 60
        found = [line for path in modules for line in suite_entanglements(path)]
        assert found == [], "\n".join(found)

    @pytest.mark.parametrize("source, found", [
        ("from test_kernel_parity import ref_conv2d\n",
         "1: imports test module test_kernel_parity"),
        ("import tests.nn.test_tensor\n", "1: imports test module tests.nn.test_tensor"),
        ("from tests.nn import test_tensor\n", "1: imports test module tests.nn.test_tensor"),
        ("import sys\nsys.path.insert(0, 'x')\n", "2: uses sys.path"),
        ("from sys import path\n", "1: imports sys.path"),
    ], ids=["from-test-module", "import-test-module", "import-from-package", "sys.path-insert",
            "from-sys-import-path"])
    def test_the_guard_sees(self, tmp_path, source, found):
        module = tmp_path / "test_x.py"
        module.write_text(source)
        assert suite_entanglements(module, tmp_path) == [f"test_x.py:{found}"]

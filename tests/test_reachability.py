"""The reachability ledger on a toy package: what it calls reached, what
it lists, and when ``--check`` fails."""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "reachability.py"

spec = importlib.util.spec_from_file_location("reachability", LEDGER)
reachability = importlib.util.module_from_spec(spec)
sys.modules.setdefault("reachability", reachability)  # its dataclass looks itself up
spec.loader.exec_module(reachability)

TOY = '''\
REGISTRY = []


def register(fn):
    REGISTRY.append(fn)
    return fn


@register
def hook():
    return 1


def called():
    def inner():
        return 2

    return 3


def uncalled():
    def helper():
        return 4

    return helper()


class Box:
    def method(self):
        return 5
'''


def load(tmp_path, name, source):
    """Write ``source`` as package ``name``, import it; returns the module
    and its definitions."""
    package = tmp_path / name
    package.mkdir()
    (package / "__init__.py").write_text(source)
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, reachability.definitions(package)


def ledger(tmp_path):
    """Import the toy package and call ``called`` and ``Box.method`` under
    the hook; returns its definitions and the unreached ones."""
    with reachability.recording() as entered:
        toy, defs = load(tmp_path, "toy", TOY)
        toy.called()
        toy.Box().method()
    return defs, reachability.unreached(defs, entered)


def test_the_ledger_lists_what_never_ran(tmp_path):
    defs, missing = ledger(tmp_path)
    assert {d.key for d in defs} == {
        "toy:register", "toy:hook", "toy:called", "toy:called.inner",
        "toy:uncalled", "toy:uncalled.helper", "toy:Box.method",
    }
    # The decorator ran at import, the function it decorates did not; a
    # nested def counts on its own under a reached def, and with its
    # parent under an unreached one.
    assert {d.key: d.lines for d in missing} == {
        "toy:hook": 3, "toy:called.inner": 2, "toy:uncalled": 5,
    }


def test_check_fails_on_a_missing_reason_and_on_stale_entries(tmp_path):
    defs, missing = ledger(tmp_path)
    allowed = {
        "toy:hook": "registered for a caller outside the package",
        "toy:called.inner": "kept on purpose",
        "toy:called": "stale: a caller now reaches it",
        "toy:gone": "stale: deleted",
    }
    assert reachability.problems(defs, missing, allowed) == [
        "unreached and not allowed: toy:uncalled (5 lines)",
        "allowed but no longer unreached: toy:called",
        "allowed but no longer exists: toy:gone",
    ]
    allowed = {"toy": "the whole module", "toy:hook": "and one of its defs"}
    assert reachability.problems(defs, missing, allowed) == []
    assert "3 unreached definitions, 10 lines" in reachability.report(missing, allowed)


def test_a_def_called_only_in_a_worker_thread_is_reached(tmp_path):
    """The hook is installed for threads too: a definition the thread
    executor alone runs is not reported."""
    source = '"""A worker."""\n\n\ndef work():\n    return 6\n\n\ndef idle():\n    return 7\n'
    with reachability.recording() as entered:
        threaded, defs = load(tmp_path, "threaded", source)
        worker = threading.Thread(target=threaded.work)
        worker.start()
        worker.join()
    assert [d.key for d in reachability.unreached(defs, entered)] == ["threaded:idle"]


def test_a_def_on_the_first_line_is_not_taken_for_its_module(tmp_path):
    """Importing runs the module's own code, which also starts at line 1."""
    with reachability.recording() as entered:
        _, defs = load(tmp_path, "first", "def never():\n    return 8\n")
    assert [d.key for d in reachability.unreached(defs, entered)] == ["first:never"]


def test_the_report_groups_by_module_and_flags_a_missing_reason(tmp_path):
    _, missing = ledger(tmp_path)
    rows = reachability.report(missing, {"toy:hook": "a caller outside"}).splitlines()
    assert rows[0] == "toy  (10 lines)"
    by_name = {row.split()[1]: row.split(maxsplit=2)[2] for row in rows[1:4]}
    assert by_name == {
        "hook": "a caller outside",
        "called.inner": "-- no reason --",
        "uncalled": "-- no reason --",
    }


def test_every_allowed_entry_names_a_definition_and_gives_one_reason():
    """A renamed or deleted definition leaves a stale entry that the CI
    step's ``--check`` refuses; this finds it without driving a command."""
    defs = reachability.definitions(reachability.PACKAGE)
    names = {d.key for d in defs} | {d.module for d in defs}
    assert sorted(set(reachability.ALLOWED) - names) == []
    for entry, reason in reachability.ALLOWED.items():
        assert reason.strip() and "\n" not in reason, entry


def test_every_driven_invocation_parses():
    """A flag or command renamed in the CLI would otherwise surface only
    when the ledger runs."""
    from repro.cli import build_parser

    parser = build_parser()
    for template in reachability.INVOCATIONS + reachability.USAGE_ERRORS:
        argv = [arg.replace("{trace}", "trace.jsonl") for arg in template]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"repro {' '.join(argv)} does not parse")

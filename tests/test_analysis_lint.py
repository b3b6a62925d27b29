"""simlint: every rule has a positive and a negative case."""

import textwrap

from repro.analysis.lint import (
    Finding,
    all_rules,
    lint_paths,
    lint_source,
    main,
    module_name_for,
)

SRC = __file__.rsplit("/tests/", 1)[0] + "/src/repro"


def findings(source, module="repro.sim.example"):
    return lint_source(textwrap.dedent(source), module=module,
                       path="example.py")


def rules_of(results):
    return [finding.rule for finding in results]


# -- SIM001: wall clock ------------------------------------------------------

def test_wall_clock_detected():
    results = findings("""
        import time
        def now():
            return time.time()
    """)
    assert "SIM001" in rules_of(results)


def test_wall_clock_via_alias_detected():
    results = findings("""
        from time import monotonic as fast_clock
        def now():
            return fast_clock()
    """)
    assert "SIM001" in rules_of(results)


def test_datetime_now_detected():
    results = findings("""
        import datetime
        def today():
            return datetime.datetime.now()
    """)
    assert "SIM001" in rules_of(results)


def test_env_now_is_fine():
    results = findings("""
        def now(env):
            return env.now
    """)
    assert results == []


# -- SIM002/SIM003: randomness ------------------------------------------------

def test_global_random_draw_detected():
    results = findings("""
        import random
        def roll():
            return random.random()
    """)
    assert "SIM002" in rules_of(results)
    assert "SIM003" in rules_of(results)  # the import itself, too


def test_unseeded_random_instance_detected():
    results = findings("""
        import random
        def make():
            return random.Random()
    """)
    assert "SIM002" in rules_of(results)


def test_random_import_allowed_only_in_rng_module():
    source = """
        import random
        def make_rng(seed):
            return random.Random(seed)
    """
    assert "SIM003" in rules_of(findings(source))
    assert rules_of(findings(source, module="repro.util.rng")) == []


def test_seeded_rng_helper_is_fine():
    results = findings("""
        from repro.util.rng import make_rng
        def make():
            return make_rng(42)
    """, module="repro.net.example")
    assert results == []


# -- SIM004: mutable defaults -------------------------------------------------

def test_mutable_default_detected():
    results = findings("""
        def collect(items=[]):
            return items
    """)
    assert rules_of(results) == ["SIM004"]


def test_mutable_default_call_and_kwonly_detected():
    results = findings("""
        def collect(*, cache=dict()):
            return cache
    """)
    assert rules_of(results) == ["SIM004"]


def test_none_default_is_fine():
    results = findings("""
        def collect(items=None, mapping=()):
            return items, mapping
    """)
    assert results == []


# -- SIM005: layering ---------------------------------------------------------

def test_upward_import_detected():
    results = findings("""
        from repro.vmm.bitmap import BlockBitmap
    """, module="repro.sim.engine")
    assert rules_of(results) == ["SIM005"]
    # A deferred import inside a function body is an edge too: SIM005
    # walks every import, so it alone judges layering.
    results = findings("""
        def late():
            from repro.vmm.bitmap import BlockBitmap
            return BlockBitmap
    """, module="repro.sim.engine")
    assert rules_of(results) == ["SIM005"]


def test_downward_import_is_fine():
    results = findings("""
        from repro.sim import Environment
        from repro.net.nic import Nic
    """, module="repro.vmm.bmcast")
    assert results == []


def test_from_repro_import_package_detected():
    results = findings("""
        from repro import cloud
    """, module="repro.net.link")
    assert rules_of(results) == ["SIM005"]


# -- SIM006: blocking primitives ---------------------------------------------

def test_time_sleep_detected():
    results = findings("""
        import time
        def wait():
            time.sleep(1.0)
    """)
    assert "SIM006" in rules_of(results)


def test_threading_import_detected():
    results = findings("""
        import threading
    """)
    assert rules_of(results) == ["SIM006"]


# -- suppressions -------------------------------------------------------------

def test_targeted_suppression():
    results = findings("""
        import time
        def now():
            return time.time()  # simlint: ignore[SIM001] test clock
    """)
    assert results == []


def test_bare_suppression_silences_all_rules():
    results = findings("""
        import threading  # simlint: ignore
    """)
    assert results == []


def test_suppression_for_other_rule_does_not_apply():
    results = findings("""
        import time
        def now():
            return time.time()  # simlint: ignore[SIM006]
    """)
    assert "SIM001" in rules_of(results)


def test_multi_rule_suppression():
    results = findings("""
        import time
        import threading  # simlint: ignore[SIM001,SIM006]
        def now():
            return time.time()
    """)
    # Both ids on the comment line suppress; the uncommented call does
    # not.
    assert rules_of(results) == ["SIM001"]


def test_multi_rule_suppression_with_spaces():
    results = findings("""
        import time
        def now():
            return time.time()  # simlint: ignore[SIM001, SIM006]
    """)
    assert results == []


def test_ignore_next_line_suppresses_the_next_line():
    results = findings("""
        import time
        def now():
            # simlint: ignore-next-line[SIM001] -- test clock
            return time.time()
    """)
    assert results == []


def test_ignore_next_line_does_not_suppress_its_own_line():
    results = findings("""
        import time
        def now():
            return time.time()  # simlint: ignore-next-line[SIM001]
    """)
    assert "SIM001" in rules_of(results)


def test_bare_ignore_next_line():
    results = findings("""
        # simlint: ignore-next-line
        import threading
    """)
    assert results == []


def test_suppression_table_for_other_tool_prefix():
    from repro.analysis.lint import suppression_table

    source = textwrap.dedent("""
        x = 1  # simcheck: ignore[CHECK001]
        # simcheck: ignore-next-line[CHECK020,CHECK050]
        y = 2
        z = 3  # simlint: ignore[SIM001]
    """)
    table = suppression_table(source, "simcheck")
    assert table[2] == {"CHECK001"}
    assert table[4] == {"CHECK020", "CHECK050"}
    # The simlint-prefixed comment does not leak into simcheck's table.
    assert 5 not in table


# -- framework ----------------------------------------------------------------

def test_syntax_error_becomes_finding():
    results = lint_source("def broken(:\n", module="repro.x",
                          path="broken.py")
    assert rules_of(results) == ["SIM000"]


def test_module_name_for_anchors_at_repro():
    assert module_name_for(SRC + "/vmm/bitmap.py") == "repro.vmm.bitmap"
    assert module_name_for(SRC + "/sim/__init__.py") == "repro.sim"


def test_finding_format_is_tool_style():
    finding = Finding("a.py", 3, 7, "SIM001", "error", "boom")
    assert finding.format() == "a.py:3:7: SIM001 error: boom"


def test_rule_catalog_is_complete():
    ids = sorted(rule.id for rule in all_rules())
    assert ids == ["SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
                   "SIM006"]


# -- the real tree ------------------------------------------------------------

def test_repro_tree_is_lint_clean():
    results = lint_paths([SRC])
    errors = [finding for finding in results
              if finding.severity == "error"]
    assert errors == []


def test_injected_violation_fails_the_run(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nSTART = time.time()\n")
    assert main([str(bad)]) == 1
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 42\n")
    assert main([str(clean)]) == 0

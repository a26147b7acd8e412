"""reprolint self-tests: seeded-violation fixtures and the clean tree.

Each fixture under ``tests/fixtures/reprolint/`` violates exactly one
rule; these tests pin that the linter reports every seeded violation at
the right file:line, stays silent on the control classes, and exits 0 on
the real ``src/repro`` tree (satellite: the tree must lint clean).
"""

import pathlib
import subprocess
import sys

from tools.reprolint import main
from tools.reprolint.rules import Diagnostic, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "reprolint"


def lint_fixture(name: str):
    diags = lint_paths([str(FIXTURES / name)])
    assert all(d.path.endswith(name.rsplit("/", 1)[-1]) for d in diags)
    return diags


def lines_of(diags, rule):
    return sorted(d.line for d in diags if d.rule == rule)


# ----------------------------------------------------------------- R001
def test_r001_flags_both_directions():
    diags = lint_fixture("r001_bad.py")
    assert [d.rule for d in diags] == ["R001", "R001", "R001"]
    orphan, missing, _ = diags
    assert orphan.line == 21 and "OrphanBatch" in orphan.message
    assert "without a concrete insert" in orphan.message
    assert missing.line == 28 and "MissingBatch" in missing.message
    assert "insert_many" in missing.message


def test_r001_flags_a_batch_shape_unlike_insert():
    weighted = lint_fixture("r001_bad.py")[2]
    assert weighted.line == 60 and "WeightedBatch" in weighted.message
    assert "['counts'] besides the batch" in weighted.message


def test_r001_controls_not_flagged():
    # The abstract stub base, the fully paired subclass and the one whose
    # batch takes insert's own extra parameter stay silent.
    diags = lint_fixture("r001_bad.py")
    assert not any(
        name in d.message
        for d in diags
        for name in ("PairedFine", "ShapedFine", "'StreamSummary'")
    )


# ----------------------------------------------------------------- R002
def test_r002_flags_hot_path_misuse():
    diags = lint_fixture("r002_bad.py")
    assert {d.rule for d in diags} == {"R002"}
    by_line = {}
    for d in diags:
        by_line.setdefault(d.line, []).append(d.message)
    assert any("obs.registry()" in m for m in by_line[13])
    assert any("obs.is_enabled()" in m for m in by_line[14])
    assert any("registers a metric" in m for m in by_line[15])
    # Double guard reported at the method line.
    assert any("2 times" in m for m in by_line[17])
    # Line 19 is both an inline registration and an unguarded _obs use.
    assert any("registers a metric" in m for m in by_line[19])
    assert any("outside an is-None guard" in m for m in by_line[19])
    # Non-hot-path methods (top_k) are never flagged.
    assert all("top_k" not in m for ms in by_line.values() for m in ms)


# ----------------------------------------------------------------- R003
def test_r003_flags_unseeded_entropy_in_core_dirs():
    diags = lint_fixture("core/r003_bad.py")
    assert {d.rule for d in diags} == {"R003"}
    assert lines_of(diags, "R003") == [7, 11, 12, 13, 14, 15]
    messages = " ".join(d.message for d in diags)
    assert "time.time()" in messages and "os.urandom()" in messages
    # The seeded random.Random(42) on line 16 is allowed.
    assert 16 not in lines_of(diags, "R003")


def test_r003_only_applies_inside_deterministic_dirs():
    # The same source outside core/ must not be flagged: R003 is scoped.
    source = (FIXTURES / "core" / "r003_bad.py").read_text()
    elsewhere = FIXTURES / "r003_elsewhere_tmp.py"
    elsewhere.write_text(source)
    try:
        assert lint_paths([str(elsewhere)]) == []
    finally:
        elsewhere.unlink()


# ----------------------------------------------------------------- R005
def test_r005_flags_missing_version_constant():
    diags = lint_fixture("r005_bad.py")
    assert [d.rule for d in diags] == ["R005"]
    assert diags[0].line == 4
    assert "without a module-level format-version constant" in diags[0].message


def test_r005_flags_one_sided_constant_reference():
    diags = lint_fixture("r005_unshared.py")
    assert [d.rule for d in diags] == ["R005"]
    assert diags[0].line == 7
    assert "never reference a shared format-version constant" in diags[0].message


# ----------------------------------------------------------------- R006
def test_r006_flags_unnotified_cell_state_writes():
    diags = lint_fixture("core/r006_bad.py")
    r006 = [d for d in diags if d.rule == "R006"]
    assert lines_of(r006, "R006") == [18, 19, 28, 51, 58]
    by_line = {d.line: d.message for d in r006}
    # Both eviction writes, each naming the attribute and the owner.
    assert "'_keys' in 'LTC.evict'" in by_line[18]
    assert "'_freqs' in 'LTC.evict'" in by_line[19]
    assert "post-dominated by a CellListener notification" in by_line[18]
    # One branch notifying is not every path.
    assert "'_counters' in 'LTC.update'" in by_line[28]
    # Module-level restore helpers are in scope too (any receiver).
    assert "'_freqs' in 'restore'" in by_line[58]


def test_r006_bare_waiver_needs_justification():
    diags = lint_fixture("core/r006_bad.py")
    bare = [d for d in diags if d.line == 51]
    assert len(bare) == 1
    assert "needs a justification" in bare[0].message
    assert "blanket suppressions are not accepted" in bare[0].message


def test_r006_controls_not_flagged():
    # Guarded notify, detached region, transitive notifier delegation,
    # and justified waivers all stay silent.
    diags = lint_fixture("core/r006_bad.py")
    flagged = lines_of(diags, "R006")
    for owner in ("LTC.insert", "LTC.reset", "LTC.delegate",
                  "LTC.rebuild", "restore_waived"):
        assert not any(f"'{owner}'" in d.message for d in diags), owner
    assert 38 not in flagged  # write followed by unconditional notify


# ----------------------------------------------------------------- R007
def test_r007_flags_blocking_calls_with_call_chain():
    diags = lint_fixture("serve/r007_bad.py")
    assert {d.rule for d in diags} == {"R007"}
    assert lines_of(diags, "R007") == [14, 19, 24, 32]
    by_line = {d.line: d.message for d in diags}
    # Transitive reach is reported with the full route.
    assert "handle_request -> _load_config" in by_line[14]
    assert "sync file I/O" in by_line[14]
    assert "time.sleep()" in by_line[19]
    assert "subprocess.run()" in by_line[24]
    # Receiver type resolved through the ctor annotation.
    assert "unbounded queue.Queue.get()" in by_line[32]


def test_r007_controls_not_flagged():
    diags = lint_fixture("serve/r007_bad.py")
    messages = " ".join(d.message for d in diags)
    assert 34 not in lines_of(diags, "R007")  # get(timeout=...) is bounded
    assert 38 not in lines_of(diags, "R007")  # waived durability barrier
    assert "save_state" not in messages
    assert "offloaded" not in messages  # run_in_executor handoff


def test_r007_flags_blocking_calls_from_protocol_callbacks():
    # The loop calls an asyncio protocol's methods directly: blocking
    # reached from one stalls it as from a coroutine.
    diags = lint_fixture("serve/r007_protocol_bad.py")
    assert {d.rule for d in diags} == {"R007"}
    assert lines_of(diags, "R007") == [17, 30, 36]
    by_line = {d.line: d.message for d in diags}
    # Every method is an entry: the loop may call one the graph does not
    # show being called (a call_later callback).
    assert "protocol callback '_answer'" in by_line[17]
    assert "_answer -> _throttle" in by_line[17]
    # Base imported by name from asyncio.
    assert "protocol callback 'connection_lost'" in by_line[30]
    # Subclass of a linted protocol class.
    assert "protocol callback 'eof_received'" in by_line[36]


def test_r007_protocol_controls_not_flagged():
    # A typing.Protocol and a plain class are not loop callbacks.
    diags = lint_fixture("serve/r007_protocol_bad.py")
    assert 41 not in lines_of(diags, "R007")
    assert 46 not in lines_of(diags, "R007")


def test_r007_only_applies_to_serve_coroutines():
    # The same source outside serve/ has no entry points: R007 is scoped.
    source = (FIXTURES / "serve" / "r007_bad.py").read_text()
    elsewhere = FIXTURES / "r007_elsewhere_tmp.py"
    elsewhere.write_text(source)
    try:
        assert lint_paths([str(elsewhere)]) == []
    finally:
        elsewhere.unlink()


# ----------------------------------------------------------------- R009
def test_r009_flags_batched_path_skew():
    diags = lint_fixture("r009_bad.py")
    assert [d.rule for d in diags] == ["R009"]
    assert diags[0].line == 19
    assert "'SkewedKernel.insert_many' never touches '_total'" in diags[0].message
    assert "'SkewedKernel.insert' mutates" in diags[0].message


def test_r009_controls_not_flagged():
    # Delegation closure, may-write mirroring, and a justified waiver.
    diags = lint_fixture("r009_bad.py")
    messages = " ".join(d.message for d in diags)
    assert "PairedKernel" not in messages
    assert "VectorKernel" not in messages
    assert "WaivedKernel" not in messages


# ----------------------------------------------------- driver behaviour
def test_diagnostic_render_format():
    d = Diagnostic(path="a/b.py", line=3, col=7, rule="R001", message="boom")
    assert d.render() == "a/b.py:3:7: R001 boom"


def test_diagnostics_sorted_by_location():
    diags = lint_paths([str(FIXTURES)])
    keys = [(d.path, d.line, d.col, d.rule) for d in diags]
    assert keys == sorted(keys)
    assert {d.rule for d in diags} == {
        "R001", "R002", "R003", "R005",
        "R006", "R007", "R009",
    }


def test_rule_filter_restricts_output():
    diags = lint_paths([str(FIXTURES)], only=frozenset({"R002"}))
    assert diags and {d.rule for d in diags} == {"R002"}


def test_clean_tree_src_repro():
    """Satellite: the real library must lint clean (exit status 0)."""
    assert lint_paths([str(REPO_ROOT / "src" / "repro")]) == []


def test_cli_exit_status_and_output(capsys):
    assert main([str(REPO_ROOT / "src" / "repro")]) == 0
    assert "reprolint: clean" in capsys.readouterr().out
    assert main([str(FIXTURES / "r001_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "R001" in out and "violation(s)" in out
    assert main([str(FIXTURES / "does_not_exist.py")]) == 2


def test_cli_rules_flag(capsys):
    assert main([str(FIXTURES), "--rules", "R005"]) == 1
    out = capsys.readouterr().out
    assert "R005" in out and "R001" not in out


def test_cli_rules_glob_selects_matching_rules(capsys):
    assert main([str(FIXTURES), "--rules", "R00[79]"]) == 1
    out = capsys.readouterr().out
    assert "R007" in out and "R009" in out
    assert "R001" not in out and "R006" not in out


def test_cli_rules_unknown_pattern_is_usage_error(capsys):
    assert main([str(FIXTURES), "--rules", "R99*"]) == 2
    out = capsys.readouterr().out
    assert "matches no known rule" in out


def test_cli_json_format(capsys):
    import json

    assert main([str(FIXTURES / "r009_bad.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "reprolint"
    assert payload["count"] == 1
    (entry,) = payload["diagnostics"]
    assert entry["rule"] == "R009" and entry["line"] == 19


def test_cli_sarif_format(tmp_path, capsys):
    import json

    report = tmp_path / "reprolint.sarif"
    assert (
        main(
            [
                str(FIXTURES / "serve" / "r007_bad.py"),
                "--format",
                "sarif",
                "--output",
                str(report),
            ]
        )
        == 1
    )
    assert "violation(s)" in capsys.readouterr().out
    sarif = json.loads(report.read_text())
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "reprolint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids) and "R007" in rule_ids
    assert len(run["results"]) == 4
    first = run["results"][0]
    assert first["ruleId"] == "R007"
    region = first["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 14
    # SARIF columns are 1-based; Diagnostic columns are 0-based offsets.
    assert region["startColumn"] == 10


def test_self_lint_tools_tree_is_clean():
    """Satellite: reprolint's own source must pass reprolint."""
    assert lint_paths([str(REPO_ROOT / "tools")]) == []


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: clean" in proc.stdout

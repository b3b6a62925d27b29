"""The simcheck engine: cache, pass orchestration, ranking, CLI.

``repro check [paths]`` (or ``python -m repro.analysis --check``)
builds the project model — incrementally, through an on-disk cache
keyed by file content hash — runs the five whole-program passes, and
reports ranked findings:

====================  ========  ==============================================
code                  severity  finding
====================  ========  ==============================================
CHECK000              error     file fails to parse
CHECK001              error     set-iteration order can reach event scheduling
CHECK010              error     generator/event constructed and discarded
CHECK011              error     process generator yields a plain constant
CHECK012              warning   broad except-pass swallows Interrupt
CHECK020              warning   shared attribute written by 2+ processes,
                                no claim protocol
CHECK030              error     declared FSM transition missing from the code
CHECK031              error     code transition the FSM spec does not declare
CHECK032              error     unreachable or dead FSM state
CHECK033              error     busy FSM state without a recovery edge
CHECK034              error     FSM spec malformed / extraction failed
CHECK050              error     import cycle among project modules
CHECK051              warning   package missing from SIM005's rank table
====================  ========  ==============================================

Suppression uses simlint's grammar under the ``simcheck`` prefix
(``# simcheck: ignore[CHECK001] -- why`` and ``ignore-next-line``);
pre-existing findings are grandfathered via the committed baseline
file (see :mod:`repro.analysis.simcheck.baseline`).  Exit status is
non-zero iff an error-severity finding survives both filters.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    module_name_for,
    suppression_table,
)
from repro.analysis.simcheck.baseline import Baseline
from repro.analysis.simcheck.fsm import check_fsms
from repro.analysis.simcheck.imports import imports_pass
from repro.analysis.simcheck.model import (
    ModuleSummary,
    ProjectModel,
    file_digest,
    load_sources,
    summarize_source,
)
from repro.analysis.simcheck.passes import (
    determinism_pass,
    discipline_pass,
    shared_state_pass,
)
from repro.analysis.simcheck.sarif import write_sarif

TOOL_VERSION = "1.0.0"

#: code -> (rank, severity, summary).  Rank orders the report: the
#: closer a class of finding sits to silent replay divergence or data
#: loss, the earlier it prints.
CATALOG: dict = {
    "CHECK001": (1, SEVERITY_ERROR,
                 "set-iteration order can reach event scheduling"),
    "CHECK030": (2, SEVERITY_ERROR,
                 "declared FSM transition missing from the code"),
    "CHECK031": (3, SEVERITY_ERROR,
                 "implementation transition the FSM spec does not "
                 "declare"),
    "CHECK032": (4, SEVERITY_ERROR, "unreachable or dead FSM state"),
    "CHECK033": (5, SEVERITY_ERROR,
                 "busy FSM state without a recovery edge"),
    "CHECK034": (6, SEVERITY_ERROR,
                 "FSM spec malformed or extraction failed"),
    "CHECK010": (7, SEVERITY_ERROR,
                 "generator or event constructed and discarded"),
    "CHECK011": (8, SEVERITY_ERROR,
                 "process generator yields a plain constant"),
    "CHECK050": (9, SEVERITY_ERROR,
                 "import cycle among project modules"),
    "CHECK020": (10, SEVERITY_WARNING,
                 "shared attribute written by 2+ process functions "
                 "without claim protocol"),
    "CHECK012": (11, SEVERITY_WARNING,
                 "broad except-pass swallows Interrupt in a process "
                 "generator"),
    "CHECK051": (12, SEVERITY_WARNING,
                 "package missing from SIM005's layering rank table"),
    "CHECK000": (13, SEVERITY_ERROR, "file fails to parse"),
}

DEFAULT_BASELINE = "simcheck.baseline.json"
DEFAULT_CACHE = ".simcheck-cache.json"
CACHE_VERSION = 1


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    findings: list = field(default_factory=list)
    baselined: list = field(default_factory=list)
    stale_baseline: list = field(default_factory=list)
    suppressed: int = 0
    fsm_reports: list = field(default_factory=list)
    modules: int = 0
    cached_modules: int = 0

    @property
    def errors(self) -> list:
        return [finding for finding in self.findings
                if finding.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list:
        return [finding for finding in self.findings
                if finding.severity == SEVERITY_WARNING]

    @property
    def fsm_fully_covered(self) -> bool:
        return all(report["covered"] == report["total"]
                   for report in self.fsm_reports)

    def describe(self) -> str:
        lines = [
            f"simcheck: {self.modules} module(s) "
            f"({self.cached_modules} from cache), "
            f"{len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.baselined)} baselined, "
            f"{self.suppressed} suppressed, "
            f"{len(self.stale_baseline)} stale baseline entr"
            f"{'y' if len(self.stale_baseline) == 1 else 'ies'}"
        ]
        for report in self.fsm_reports:
            share = (report["covered"] / report["total"]
                     if report["total"] else 1.0)
            lines.append(
                f"FSM {report['name']}: {report['covered']}/"
                f"{report['total']} spec transitions covered "
                f"({share:.0%}), {report['extracted']} extracted")
        return "\n".join(lines)


# -- incremental cache --------------------------------------------------------

class SummaryCache:
    """Per-file module summaries keyed by content hash, on disk."""

    def __init__(self, path=None):
        self.path = Path(path) if path else None
        self._files: dict = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            try:
                payload = json.loads(
                    self.path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError):
                payload = {}
            if payload.get("version") == CACHE_VERSION:
                self._files = payload.get("files", {})

    def summarize(self, path, text: str) -> ModuleSummary:
        key = str(path)
        digest = file_digest(text)
        cached = self._files.get(key)
        if cached is not None and cached.get("sha256") == digest:
            self.hits += 1
            return ModuleSummary.from_dict(cached["summary"])
        self.misses += 1
        summary = summarize_source(text, module_name_for(path),
                                   path=key)
        self._files[key] = {"sha256": digest,
                            "summary": summary.to_dict()}
        return summary

    def save(self) -> None:
        if self.path is None:
            return
        payload = {"version": CACHE_VERSION, "files": self._files}
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True) + "\n",
                encoding="utf-8")
        except OSError:
            pass  # a read-only checkout still gets a full (slow) run


# -- orchestration ------------------------------------------------------------

def _rank(finding: Finding) -> tuple:
    rank = CATALOG.get(finding.rule, (99,))[0]
    return (rank, finding.path, finding.line, finding.col, finding.rule)


def run_check(paths, baseline_path=None, cache_path=None,
              write_baseline: bool = False) -> CheckReport:
    """Build the model, run all five passes, apply filters."""
    report = CheckReport()
    cache = SummaryCache(cache_path)
    entries = []
    parse_failures = []
    for path, text in load_sources(paths):
        try:
            entries.append((cache.summarize(path, text), text))
        except SyntaxError as error:
            parse_failures.append(Finding(
                str(path), error.lineno or 1, error.offset or 0,
                "CHECK000", SEVERITY_ERROR,
                f"syntax error: {error.msg}"))
    cache.save()
    model = ProjectModel(entries)
    report.modules = len(entries)
    report.cached_modules = cache.hits

    raw: list[Finding] = list(parse_failures)
    raw.extend(determinism_pass(model))
    raw.extend(discipline_pass(model))
    raw.extend(shared_state_pass(model))
    fsm_findings, report.fsm_reports = check_fsms(model)
    raw.extend(fsm_findings)
    raw.extend(imports_pass(model))

    # Inline suppressions (the simlint grammar, simcheck prefix).
    tables: dict[str, dict] = {}
    active: list[Finding] = []
    for finding in raw:
        table = tables.get(finding.path)
        if table is None:
            source = model.sources.get(finding.path, "")
            table = suppression_table(source, "simcheck")
            tables[finding.path] = table
        rules = table.get(finding.line, ())
        if "*" in rules or finding.rule in rules:
            report.suppressed += 1
            continue
        active.append(finding)

    # Baseline grandfathering.
    def context_of(finding: Finding) -> str:
        return model.source_line(finding.path, finding.line)

    baseline = Baseline.load(baseline_path) if baseline_path else \
        Baseline()
    if write_baseline and baseline_path:
        baseline.write(baseline_path, active, context_of)
        baseline = Baseline.load(baseline_path)
    for finding in active:
        if baseline.matches(finding, context_of(finding)):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.stale_baseline = baseline.stale_entries()
    report.findings.sort(key=_rank)
    return report


# -- CLI ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcheck",
        description="Whole-program static analysis for the BMcast "
        "simulator: determinism taint, process discipline, race "
        "candidates, FSM spec checking, import cycles.")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help="grandfathered-findings file (default: "
                        f"{DEFAULT_BASELINE}; absent file = empty)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--write-baseline", action="store_true",
                        help="regenerate the baseline from this run "
                        "(keeps justifications, expires stale entries)")
    parser.add_argument("--cache", default=DEFAULT_CACHE,
                        metavar="FILE",
                        help="incremental summary cache (default: "
                        f"{DEFAULT_CACHE})")
    parser.add_argument("--no-cache", action="store_true",
                        help="parse everything fresh, write no cache")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too, not just "
                        "errors")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the CHECK code catalog and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        ordered = sorted(CATALOG.items(), key=lambda kv: kv[1][0])
        for code, (_, severity, summary) in ordered:
            print(f"{code}  [{severity}]  {summary}")
        return 0

    try:
        report = run_check(
            args.paths or ["src/repro"],
            baseline_path=None if args.no_baseline else args.baseline,
            cache_path=None if args.no_cache else args.cache,
            write_baseline=args.write_baseline
            and not args.no_baseline)
    except FileNotFoundError as error:
        print(f"simcheck: {error}", file=sys.stderr)
        return 2

    for finding in report.findings:
        print(finding.format())
    for entry in report.stale_baseline:
        print(f"simcheck: stale baseline entry {entry.code} at "
              f"{entry.path} ({entry.context!r}) — finding no longer "
              f"exists; rerun with --write-baseline to expire it")
    print(report.describe())
    if args.sarif:
        write_sarif(args.sarif, report.findings, CATALOG, TOOL_VERSION)
        print(f"SARIF written to {args.sarif} "
              f"({len(report.findings)} result(s))")
    if report.errors or (args.strict and report.findings):
        return 1
    return 0

#!/usr/bin/env python3
"""Repo-native static analysis for the rcons codebase.

Python 3 stdlib only — no libclang. The rules encode this repository's
documented invariants (see README "Correctness tooling"):

  atomics-discipline   every atomic .load/.store/.exchange/fetch_*/
                       compare_exchange_* call carries an explicit
                       std::memory_order argument.
  hot-path-no-mutex    std::mutex / lock_guard / unique_lock / shared_mutex /
                       condition_variable are forbidden in hot-tagged files
                       (the lock-free visit->intern->push pipeline) except at
                       sites carrying an allow annotation naming the cold
                       path.
  exhaustive-switch    switches over the audited enums (StopReason,
                       PropertyKind, ScheduleEvent::Kind, FaultPlan::Site,
                       FaultPlan::Action) cover every
                       enumerator, or carry a default: with a reason comment.
  obs-taxonomy-sync    every engine.*/check.*/random.*/replay.*/portfolio.*/
                       store.* metric literal in src/ appears in the
                       metric_names() taxonomy (obs/session.cpp) and vice
                       versa; span names created in src/ or examples/ appear
                       in span_names(), and every documented span is emitted
                       there. No name may be documented as "reserved": the
                       taxonomy lists only names some code emits.
  assert-discipline    bare assert( / abort( / <cassert> outside
                       util/assert.hpp are errors; use RCONS_ASSERT /
                       RCONS_DCHECK / RCONS_UNREACHABLE.
  include-hygiene      headers carry an RCONS_*_HPP include guard; no
                       `using namespace std`.

Allow-annotation grammar (reason is REQUIRED — "zero unexplained allows"):

  // rcons-lint: allow(rule[,rule2]) <reason text>
  // rcons-lint: allow-file(rule) <reason text>

A line-level allow suppresses the named rules on its own line and the next
line. Annotations that suppress nothing are themselves findings
(stale-allow), so suppressions cannot rot.

Files are tagged hot for hot-path-no-mutex either by the built-in list
(HOT_FILE_SUFFIXES) or by a `// rcons-lint: hot-path` marker in the file.

Usage:
  tools/analyze/lint.py --all                 # lint src/ tests/ examples/ bench/
  tools/analyze/lint.py src/engine            # lint a subtree
  tools/analyze/lint.py --list-rules
Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import os
import re
import sys

RULES = {
    "atomics-discipline": "atomic ops must name an explicit std::memory_order",
    "hot-path-no-mutex": "mutex/lock primitives forbidden in hot-tagged files",
    "exhaustive-switch": "switches over audited enums cover every enumerator",
    "obs-taxonomy-sync": "metric/span literals match the obs/session.cpp taxonomy",
    "assert-discipline": "bare assert(/abort( outside util/assert.hpp",
    "include-hygiene": "RCONS include guards; no `using namespace std`",
}

# Internal meta-rules (not suppressible, not listed in fixtures).
META_RULES = ("bad-allow", "stale-allow", "unknown-rule")

DEFAULT_SCAN_DIRS = ("src", "tests", "examples", "bench")
CXX_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
SKIP_DIR_NAMES = {".git", "__pycache__", "fixtures"}
SKIP_DIR_PREFIXES = ("build",)

# Files on the lock-free hot path (PR 7): the visit -> canonicalize ->
# fingerprint -> intern -> push pipeline. The in-file `hot-path` marker is
# the primary tag; this list is the backstop so deleting a marker cannot
# silently untag a file.
HOT_FILE_SUFFIXES = (
    "src/engine/cas_table.hpp",
    "src/engine/frontier.hpp",
    "src/engine/node_store.hpp",
    "src/engine/node_store.cpp",
    "src/engine/expand.hpp",
    "src/engine/expand.cpp",
)

MUTEX_TOKENS = (
    "std::mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::shared_mutex",
    "std::shared_lock",
    "std::condition_variable",
)

# Audited enums: short name -> (repo-relative header, nested qualifier the
# case labels use). Enumerators are parsed from the header at startup; a
# missing header simply skips that enum (fixture trees carry mini headers).
AUDITED_ENUMS = {
    "StopReason": "src/sim/explorer_config.hpp",
    "PropertyKind": "src/sim/properties.hpp",
    "Kind": "src/sim/schedule.hpp",  # sim::ScheduleEvent::Kind
    "Site": "src/engine/fault_inject.hpp",  # FaultPlan::Site
    "Action": "src/engine/fault_inject.hpp",  # FaultPlan::Action
}

TAXONOMY_FILE = "src/obs/session.cpp"
METRIC_PREFIXES = ("engine", "check", "random", "replay", "portfolio", "store")

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\("
)

ALLOW_RE = re.compile(r"rcons-lint:\s*allow(-file)?\(([^)]*)\)\s*(.*)")
HOT_MARKER_RE = re.compile(r"rcons-lint:\s*hot-path")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Allow:
    def __init__(self, path, line, rules, reason, file_level):
        self.path = path
        self.line = line
        self.rules = rules
        self.reason = reason
        self.file_level = file_level
        self.used = False


def strip_comments_and_strings(text, keep_strings):
    """Returns text with comments blanked (and optionally string/char
    literals), preserving line structure so line numbers survive."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                # Raw string literal R"delim( ... )delim"
                if text[i - 1 : i] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^(\s]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        out.append('"')
                        i += 1
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(ch)
            i += 1
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append(ch + nxt if keep_strings else "  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
                out.append(ch)
            else:
                out.append(ch if keep_strings else (" " if ch != "\n" else "\n"))
            i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append(raw_delim if keep_strings else " " * len(raw_delim))
                i += len(raw_delim)
                state = "code"
                continue
            out.append(ch if keep_strings else (" " if ch != "\n" else "\n"))
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root, rel_path):
        self.rel_path = rel_path
        with open(os.path.join(root, rel_path), encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.splitlines()
        # code: comments + strings blanked (structure only).
        self.code = strip_comments_and_strings(self.raw, keep_strings=False)
        self.code_lines = self.code.splitlines()
        # code_with_strings: comments blanked, literals kept (taxonomy rule).
        self.code_with_strings = strip_comments_and_strings(self.raw, keep_strings=True)
        self.allows = self._parse_allows()
        self.hot = HOT_MARKER_RE.search(self.raw) is not None or any(
            rel_path.replace(os.sep, "/").endswith(suffix) for suffix in HOT_FILE_SUFFIXES
        )

    def _parse_allows(self):
        allows = []
        for lineno, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if m is None:
                continue
            file_level = m.group(1) == "-file"
            rules = [r.strip() for r in m.group(2).split(",") if r.strip()]
            reason = m.group(3).strip()
            allows.append(Allow(self.rel_path, lineno, rules, reason, file_level))
        return allows

    def allowed(self, rule, lineno):
        """True when `rule` is suppressed at `lineno`; marks the allow used."""
        hit = False
        for allow in self.allows:
            if rule not in allow.rules or not allow.reason:
                continue
            if allow.file_level or allow.line in (lineno, lineno - 1):
                allow.used = True
                hit = True
        return hit


def balanced_args(text, open_paren_index):
    """Returns the argument text between the paren at open_paren_index and
    its balanced close (or None when unterminated)."""
    depth = 0
    for j in range(open_paren_index, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren_index + 1 : j]
    return None


# --- rules -------------------------------------------------------------------


def check_atomics(sf, findings):
    for m in ATOMIC_CALL_RE.finditer(sf.code):
        args = balanced_args(sf.code, sf.code.index("(", m.end() - 1))
        lineno = sf.code.count("\n", 0, m.start()) + 1
        if args is None:
            findings.append(
                Finding(sf.rel_path, lineno, "atomics-discipline",
                        f"unterminated {m.group(1)}() call"))
            continue
        if "memory_order" in args:
            continue
        if sf.allowed("atomics-discipline", lineno):
            continue
        findings.append(
            Finding(sf.rel_path, lineno, "atomics-discipline",
                    f"atomic {m.group(1)}() without an explicit std::memory_order "
                    "(implicit seq_cst hides the protocol's ordering intent)"))


def check_hot_path(sf, findings):
    if not sf.hot:
        return
    for lineno, line in enumerate(sf.code_lines, start=1):
        for token in MUTEX_TOKENS:
            if token in line and not sf.allowed("hot-path-no-mutex", lineno):
                findings.append(
                    Finding(sf.rel_path, lineno, "hot-path-no-mutex",
                            f"{token} in hot-tagged file; annotate the cold path with "
                            "`// rcons-lint: allow(hot-path-no-mutex) <reason>` or move "
                            "the lock out of the pipeline"))


def parse_enumerators(header_text, enum_name):
    code = strip_comments_and_strings(header_text, keep_strings=False)
    m = re.search(
        r"enum\s+(?:class\s+|struct\s+)?" + re.escape(enum_name) + r"\s*(?::[^{;]*)?\{",
        code)
    if m is None:
        return None
    body = balanced_body(code, m.end() - 1, "{", "}")
    if body is None:
        return None
    enumerators = []
    for part in body.split(","):
        name = part.split("=")[0].strip()
        if re.fullmatch(r"[A-Za-z_]\w*", name):
            enumerators.append(name)
    return enumerators


def balanced_body(text, open_index, open_ch, close_ch):
    depth = 0
    for j in range(open_index, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return text[open_index + 1 : j]
    return None


def load_audited_enums(root):
    enums = {}
    for short_name, rel_header in AUDITED_ENUMS.items():
        path = os.path.join(root, rel_header)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            enumerators = parse_enumerators(f.read(), short_name)
        if enumerators:
            enums[short_name] = set(enumerators)
    return enums


CASE_RE = re.compile(r"\bcase\s+([A-Za-z_][\w:]*)\s*:")


def check_switches(sf, enums, findings):
    if not enums:
        return
    for m in re.finditer(r"\bswitch\s*\(", sf.code):
        open_brace = sf.code.find("{", m.end())
        if open_brace < 0:
            continue
        body = balanced_body(sf.code, open_brace, "{", "}")
        if body is None:
            continue
        lineno = sf.code.count("\n", 0, m.start()) + 1
        labels = CASE_RE.findall(body)
        if not labels:
            continue
        basenames = {label.split("::")[-1] for label in labels}
        qualifiers = {label.split("::")[-2] for label in labels if "::" in label}
        candidate = None
        for enum_name, enumerators in enums.items():
            if not basenames <= enumerators:
                continue
            if qualifiers and enum_name not in qualifiers:
                continue
            if candidate is None or len(enums[candidate]) > len(enumerators):
                candidate = enum_name  # prefer the tightest match
        if candidate is None:
            continue
        has_default = re.search(r"\bdefault\s*:", body) is not None
        if has_default:
            # The default must say why it is there: a comment on its raw line
            # or the next one, or an allow annotation.
            default_offset = body.index("default")
            default_line = lineno + m.end() - m.start()  # approximate fallback
            default_line = (
                sf.code.count("\n", 0, open_brace + 1 + default_offset) + 1)
            reasoned = any(
                "//" in sf.raw_lines[i]
                for i in range(default_line - 1, min(default_line + 1, len(sf.raw_lines))))
            if not reasoned and not sf.allowed("exhaustive-switch", default_line):
                findings.append(
                    Finding(sf.rel_path, default_line, "exhaustive-switch",
                            f"default: in a switch over {candidate} needs a reason "
                            "comment (or list every enumerator)"))
            continue
        missing = sorted(enums[candidate] - basenames)
        if missing and not sf.allowed("exhaustive-switch", lineno):
            findings.append(
                Finding(sf.rel_path, lineno, "exhaustive-switch",
                        f"switch over {candidate} misses enumerator(s): "
                        f"{', '.join(missing)} (cover them or add a "
                        "default-with-reason)"))


METRIC_LITERAL_RE = re.compile(
    r'"((?:' + "|".join(METRIC_PREFIXES) + r')\.[a-z][a-z0-9_]*)"')
SPAN_CALL_RES = (
    re.compile(r'obs::Span\s+\w+\s*\([^;"]*"([A-Za-z_]+)', re.S),
    re.compile(r'->\s*complete\s*\([^;"]*"([A-Za-z_]+)', re.S),
    re.compile(r'->\s*instant\s*\([^;"]*"([A-Za-z_]+)', re.S),
)
NAMEDOC_RE = re.compile(r'\{\s*"([^"]+)"\s*,\s*"([^"]*)"\s*\}')


def parse_taxonomy(session_text):
    """Returns ({metric: doc}, {span: doc}) from obs/session.cpp."""
    metrics, spans = {}, {}
    for fn_name, out in (("metric_names", metrics), ("span_names", spans)):
        m = re.search(fn_name + r"\(\)\s*\{", session_text)
        if m is None:
            continue
        body = balanced_body(session_text, m.end() - 1, "{", "}")
        if body is None:
            continue
        for name, doc in NAMEDOC_RE.findall(body):
            out[name] = doc
    return metrics, spans


def check_obs_taxonomy(root, files, findings):
    session_path = os.path.join(root, TAXONOMY_FILE)
    if not os.path.isfile(session_path):
        return  # tree without an obs taxonomy (e.g. a fixture for other rules)
    with open(session_path, encoding="utf-8", errors="replace") as f:
        metrics, spans = parse_taxonomy(f.read())
    if not metrics and not spans:
        return

    def under(sf, top):
        rel = sf.rel_path.replace(os.sep, "/")
        return rel.startswith(top + "/") and rel != TAXONOMY_FILE

    used_metrics = {}
    used_spans = {}
    all_literals = set()
    for sf in files:
        in_src = under(sf, "src")
        if not in_src and not under(sf, "examples"):
            continue
        text = sf.code_with_strings
        if in_src:
            for m in METRIC_LITERAL_RE.finditer(text):
                lineno = text.count("\n", 0, m.start()) + 1
                used_metrics.setdefault(m.group(1), (sf.rel_path, lineno))
        for pattern in SPAN_CALL_RES:
            for m in pattern.finditer(text):
                lineno = text.count("\n", 0, m.start()) + 1
                used_spans.setdefault(m.group(1), (sf.rel_path, lineno))
        all_literals.update(re.findall(r'"([^"\n]*)"', text))

    taxonomy_rel = TAXONOMY_FILE
    for kind, docs in (("metric", metrics), ("span", spans)):
        for name in sorted(docs):
            if docs[name].startswith("reserved"):
                findings.append(
                    Finding(taxonomy_rel, 1, "obs-taxonomy-sync",
                            f'{kind} "{name}" is documented as reserved; the taxonomy '
                            "lists only emitted names (emit it or delete it)"))
    for name, (path, lineno) in sorted(used_metrics.items()):
        if name not in metrics:
            findings.append(
                Finding(path, lineno, "obs-taxonomy-sync",
                        f'metric "{name}" is published but missing from '
                        f"metric_names() in {taxonomy_rel}"))
    for name in sorted(metrics):
        if name not in used_metrics:
            findings.append(
                Finding(taxonomy_rel, 1, "obs-taxonomy-sync",
                        f'metric "{name}" is documented in metric_names() but never '
                        "published in src/ (publish it or delete it)"))
    for name, (path, lineno) in sorted(used_spans.items()):
        if name not in spans:
            findings.append(
                Finding(path, lineno, "obs-taxonomy-sync",
                        f'span "{name}" is emitted but missing from span_names() '
                        f"in {taxonomy_rel}"))
    for name in sorted(spans):
        # Span names may travel through helpers; any literal occurrence in
        # src/ or examples/ counts as emitted.
        if name in used_spans or name in all_literals:
            continue
        findings.append(
            Finding(taxonomy_rel, 1, "obs-taxonomy-sync",
                    f'span "{name}" is documented in span_names() but never emitted '
                    "in src/ or examples/ (emit it or delete it)"))


BARE_ASSERT_RE = re.compile(r"(?:^|[^_\w.])assert\s*\(")
ABORT_RE = re.compile(r"(?:^|[^_\w:.])(?:std::\s*)?abort\s*\(")
STD_ABORT_RE = re.compile(r"std::\s*abort\s*\(")


def check_assert_discipline(sf, findings):
    # util/assert.hpp is NOT exempt: its one std::abort() carries an allow
    # annotation like any other sanctioned site.
    for lineno, line in enumerate(sf.code_lines, start=1):
        if "static_assert" in line:
            line = line.replace("static_assert", "")
        if BARE_ASSERT_RE.search(line) and not sf.allowed("assert-discipline", lineno):
            findings.append(
                Finding(sf.rel_path, lineno, "assert-discipline",
                        "bare assert(); use RCONS_ASSERT / RCONS_DCHECK "
                        "(util/assert.hpp) so the failure reports file/line and "
                        "respects build-type policy"))
        if (ABORT_RE.search(line) or STD_ABORT_RE.search(line)) and not sf.allowed(
                "assert-discipline", lineno):
            findings.append(
                Finding(sf.rel_path, lineno, "assert-discipline",
                        "raw abort(); use RCONS_ASSERT_MSG / RCONS_UNREACHABLE or "
                        "annotate the sanctioned site"))
    for lineno, line in enumerate(sf.raw_lines, start=1):
        if re.search(r'#\s*include\s*[<"](cassert|assert\.h)[>"]', line):
            if not sf.allowed("assert-discipline", lineno):
                findings.append(
                    Finding(sf.rel_path, lineno, "assert-discipline",
                            "<cassert>/<assert.h> include; the contract layer is "
                            "util/assert.hpp"))


def check_include_hygiene(sf, findings):
    rel = sf.rel_path.replace(os.sep, "/")
    if rel.endswith((".hpp", ".h")) and rel.startswith("src/"):
        has_guard = re.search(r"^#ifndef\s+RCONS_\w+_HPP", sf.raw, re.M) and re.search(
            r"^#define\s+RCONS_\w+_HPP", sf.raw, re.M)
        if not has_guard and not sf.allowed("include-hygiene", 1):
            findings.append(
                Finding(sf.rel_path, 1, "include-hygiene",
                        "header lacks an RCONS_*_HPP include guard"))
    for lineno, line in enumerate(sf.code_lines, start=1):
        if re.search(r"\busing\s+namespace\s+std\b", line) and not sf.allowed(
                "include-hygiene", lineno):
            findings.append(
                Finding(sf.rel_path, lineno, "include-hygiene",
                        "`using namespace std` pollutes every includer"))


def check_allow_annotations(sf, findings):
    for allow in sf.allows:
        unknown = [r for r in allow.rules if r not in RULES]
        for rule in unknown:
            findings.append(
                Finding(sf.rel_path, allow.line, "unknown-rule",
                        f'allow names unknown rule "{rule}" (known: '
                        f"{', '.join(sorted(RULES))})"))
        if not allow.reason:
            findings.append(
                Finding(sf.rel_path, allow.line, "bad-allow",
                        "allow annotation without a reason; the grammar is "
                        "`rcons-lint: allow(rule) <why this site is exempt>`"))
        elif not allow.used and not unknown:
            findings.append(
                Finding(sf.rel_path, allow.line, "stale-allow",
                        f"allow({', '.join(allow.rules)}) suppresses nothing on "
                        "this or the next line; delete it"))


# --- driver ------------------------------------------------------------------


def collect_files(root, scan_paths):
    rel_paths = []
    for scan in scan_paths:
        full = os.path.join(root, scan)
        if os.path.isfile(full):
            if full.endswith(CXX_EXTENSIONS):
                rel_paths.append(os.path.relpath(full, root))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = [
                d for d in dirnames
                if d not in SKIP_DIR_NAMES and not d.startswith(SKIP_DIR_PREFIXES)
            ]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    rel_paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(set(rel_paths))


def run_lint(root, scan_paths, selected_rules):
    files = [SourceFile(root, rel) for rel in collect_files(root, scan_paths)]
    enums = load_audited_enums(root)
    findings = []
    for sf in files:
        if "atomics-discipline" in selected_rules:
            check_atomics(sf, findings)
        if "hot-path-no-mutex" in selected_rules:
            check_hot_path(sf, findings)
        if "exhaustive-switch" in selected_rules:
            check_switches(sf, enums, findings)
        if "assert-discipline" in selected_rules:
            check_assert_discipline(sf, findings)
        if "include-hygiene" in selected_rules:
            check_include_hygiene(sf, findings)
    if "obs-taxonomy-sync" in selected_rules:
        check_obs_taxonomy(root, files, findings)
    for sf in files:
        check_allow_annotations(sf, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (relative to --root)")
    parser.add_argument("--all", action="store_true",
                        help=f"lint the default tree: {' '.join(DEFAULT_SCAN_DIRS)}")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule:20s} {RULES[rule]}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if args.all:
        scan_paths = [d for d in DEFAULT_SCAN_DIRS if os.path.isdir(os.path.join(root, d))]
    elif args.paths:
        scan_paths = args.paths
    else:
        parser.error("nothing to lint: pass paths or --all")

    if args.rules:
        selected = set()
        for rule in args.rules.split(","):
            rule = rule.strip()
            if rule not in RULES:
                print(f"unknown rule: {rule}", file=sys.stderr)
                return 2
            selected.add(rule)
    else:
        selected = set(RULES)

    findings = run_lint(root, scan_paths, selected)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\n{len(findings)} finding(s). See tools/analyze/lint.py --list-rules "
              "and README 'Correctness tooling'.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

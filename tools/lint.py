#!/usr/bin/env python3
"""House-rules linter for the htl codebase (run in CI; see CONTRIBUTING.md).

Checks src/, bench/, and examples/ by default. src/ gets the full rule set;
bench/ and examples/ (and any file outside src/) get the portable subset
(no-exceptions, no-throwing-parse, no-raw-thread, no-raw-mutex,
no-raw-socket) — the rules whose rationale is about runtime behavior, not
src/ layout conventions.

  no-exceptions     `throw` / `try` / `catch` are forbidden in src/: fallible
                    code returns htl::Status / htl::Result<T> (status.h).
  no-using-namespace-in-header
                    `using namespace` in a header leaks into every includer.
  header-guard      Headers open with `#ifndef HTL_<PATH>_H_` derived from the
                    path relative to src/ (e.g. src/sim/sim_list.h ->
                    HTL_SIM_SIM_LIST_H_), matching #define, and a trailing
                    `#endif  // HTL_<PATH>_H_`.
  include-order     First include of foo.cc is its own header "foo.h"; the
                    remaining includes form blank-line-separated blocks, each
                    internally sorted, with <system> blocks before "project"
                    blocks.
  no-void-status-discard
                    `(void)call(...)` is forbidden: discarding a call result
                    defeats [[nodiscard]] Status/Result. Use .IgnoreError()
                    with a comment instead. (`(void)param;` for unused
                    parameters stays legal.)
  no-throwing-parse `std::stoi` / `std::stoll` / `std::stod` & friends throw;
                    use htl::ParseInt32/ParseInt64/ParseDouble (util/parse.h).
  exec-context-polling
                    Engine-loop files (src/engine/*.cc and src/sql/executor.cc)
                    that contain loops must reference the execution context
                    (ExecContext / HTL_CHECK_EXEC / ChargeRows / ...): a loop
                    over segments or rows that never polls it cannot honor
                    deadlines or cancellation (CONTRIBUTING.md ground rule).
                    File-scoped: suppress with `// htl-lint:
                    allow(exec-context-polling)` anywhere in the file.
  no-bare-timer     Hot-path kernel files (src/sim/ and src/engine/) must not
                    time work with a bare WallTimer (util/timer.h): per-query
                    timing belongs to the sanctioned span macro HTL_OBS_SPAN /
                    TraceSpan (src/obs/trace.h), which is free when disarmed
                    and lands in the EXPLAIN profile when armed.
  obs-operator-span Hot-path kernel files (the operator kernels in src/sim/,
                    the engines in src/engine/, and src/sql/executor.cc) must
                    reference the observability layer (HTL_OBS_SPAN /
                    HTL_OBS_COUNT / TraceSpan / obs::): a kernel that never
                    counts or traces is invisible to EXPLAIN (CONTRIBUTING.md
                    ground rule). File-scoped: suppress with `// htl-lint:
                    allow(obs-operator-span)` anywhere in the file.
  no-raw-thread     `std::thread` / `std::jthread` are forbidden in src/
                    outside src/util/thread_pool.{h,cc}: ad-hoc threads skip
                    the pool's bounded queue, cancellation fan-out, and TSan
                    coverage. Run work on the shared ThreadPool (ParallelFor /
                    Schedule) instead (CONTRIBUTING.md ground rule).
  no-raw-mutex      `std::mutex` / `std::condition_variable` / the std lock
                    adapters are forbidden outside src/util/mutex.h: shared
                    state synchronizes through the annotated htl::Mutex /
                    htl::MutexLock / htl::CondVar wrappers so Clang Thread
                    Safety Analysis (the `tsa` preset; DESIGN.md "Lock
                    discipline") can prove the lock discipline. A raw
                    std::mutex is invisible to the analysis.
  no-raw-socket     The BSD socket API (the <sys/socket.h> family of headers
                    and ::socket / ::connect / ::recv / ... syscalls) is
                    forbidden outside src/net/socket.cc: all byte transport
                    goes through the deadline-aware net::Socket wrappers
                    (src/net/socket.h) so every read/write path gets
                    deadlines, clean Unavailable mapping, fault points, and
                    the drain path's cross-thread shutdown (DESIGN.md "Query
                    service"). An ad-hoc socket can block forever and is
                    invisible to graceful drain.
  stale-suppression `// htl-lint: allow(<rule>)` comments that no longer
                    suppress anything (the rule never fires there, is unknown,
                    or is not in scope for the file) are findings themselves:
                    a stale allow is how the next real violation sneaks in
                    under an old waiver. Fix by deleting the comment. This
                    meta-rule cannot itself be suppressed.

A finding can be locally suppressed with `// htl-lint: allow(<rule>)` on the
same line. Exit status is 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

HEADER_EXTS = {".h"}
SOURCE_EXTS = {".h", ".cc", ".cpp"}

ALLOW_RE = re.compile(r"//\s*htl-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

# Every rule the linter can emit (stale-suppression is the meta-rule).
ALL_RULES = {
    "no-exceptions",
    "no-using-namespace-in-header",
    "header-guard",
    "include-order",
    "no-void-status-discard",
    "no-throwing-parse",
    "exec-context-polling",
    "no-bare-timer",
    "obs-operator-span",
    "no-raw-thread",
    "no-raw-mutex",
    "no-raw-socket",
    "stale-suppression",
}

# The portable subset applied outside src/ (bench/, examples/): rules about
# runtime behavior that hold anywhere, not src/ layout conventions.
AUX_RULES = {
    "no-exceptions",
    "no-throwing-parse",
    "no-raw-thread",
    "no-raw-mutex",
    "no-raw-socket",
    "stale-suppression",
}


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment/string-literal contents with spaces, keeping offsets.

    Newlines are preserved so line numbers survive. String and char literals
    become `""` / `''`; comments become whitespace.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def allowed_rules(raw_line: str) -> set[str]:
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


class FileLint:
    """One file's lint pass: enabled-rule scoping, findings, and the record
    of which allow() suppressions actually fired (for stale detection)."""

    def __init__(self, path: Path, raw_lines: list[str], enabled: set[str]):
        self.path = path
        self.raw_lines = raw_lines
        self.enabled = enabled
        self.findings: list[Finding] = []
        # (lineno, rule) pairs whose allow() suppressed a real would-be
        # finding; everything mentioned but absent here is stale.
        self.used_allows: set[tuple[int, str]] = set()

    def hit(self, lineno: int, rule: str, message: str) -> None:
        """Reports a would-be finding at `lineno`, honoring a same-line
        allow(). No-op when the rule is out of scope for this file."""
        if rule not in self.enabled:
            return
        if rule in allowed_rules(self.raw_lines[lineno - 1]):
            self.used_allows.add((lineno, rule))
        else:
            self.findings.append(Finding(self.path, lineno, rule, message))

    def hit_file_scoped(self, rule: str, message: str) -> None:
        """Reports a would-be file-scoped finding, honoring an allow()
        anywhere in the file (all mentions of the rule count as used)."""
        if rule not in self.enabled:
            return
        mentions = [idx + 1 for idx, l in enumerate(self.raw_lines)
                    if rule in allowed_rules(l)]
        if mentions:
            self.used_allows.update((m, rule) for m in mentions)
        else:
            self.findings.append(Finding(self.path, 1, rule, message))


EXCEPTION_RE = re.compile(r"(?<![\w])(?:throw|try|catch)(?![\w])")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:.\->]*\s*\(")
THROWING_PARSE_RE = re.compile(r"\bstd\s*::\s*sto(?:i|l|ll|ul|ull|f|d|ld)\b")
RAW_THREAD_RE = re.compile(r"\bstd\s*::\s*(?:jthread|thread)\b")
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")')

# The one sanctioned home for raw threads: the pool's own implementation.
RAW_THREAD_EXEMPT = {
    "src/util/thread_pool.h",
    "src/util/thread_pool.cc",
}

# The one sanctioned home for raw std synchronization: the annotated wrapper
# itself (htl::Mutex / htl::CondVar are built on std::mutex /
# std::condition_variable — that is the point).
RAW_MUTEX_EXEMPT = {
    "src/util/mutex.h",
}

# Socket-API headers (matched on the raw line — include paths inside quotes
# are blanked by strip_comments_and_strings, but these are all <...>).
RAW_SOCKET_INCLUDE_RE = re.compile(
    r"#\s*include\s+<(?:sys/socket\.h|sys/un\.h|netinet/[^>]+|arpa/inet\.h|"
    r"netdb\.h|poll\.h|sys/epoll\.h)>")
# Globally-qualified socket syscalls. The lookbehind keeps `std::bind` /
# `absl::socket`-style qualified names from matching: only a leading `::`
# (start of token) counts as the global namespace.
RAW_SOCKET_CALL_RE = re.compile(
    r"(?<![\w)])::\s*(?:socket|connect|accept4?|bind|listen|recv|recvfrom|"
    r"send|sendto|sendmsg|recvmsg|poll|epoll_\w+|setsockopt|getsockopt|"
    r"getsockname|getpeername|inet_pton|inet_ntop)\s*\(")

# The one sanctioned home for the raw socket API: the deadline-aware
# net::Socket wrapper implementation.
RAW_SOCKET_EXEMPT = {
    "src/net/socket.cc",
}


def rel_posix(path: Path) -> str | None:
    try:
        return path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return None


def expected_guard(path: Path) -> str:
    rel = path.relative_to(REPO_ROOT / "src")
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel).upper())
    return f"HTL_{token}_"


def check_line_rules(lint: FileLint, code_lines: list[str]) -> None:
    path = lint.path
    rel = rel_posix(path)
    is_header = path.suffix in HEADER_EXTS
    for idx, code in enumerate(code_lines):
        lineno = idx + 1

        if EXCEPTION_RE.search(code):
            lint.hit(lineno, "no-exceptions",
                     "throw/try/catch is forbidden; return htl::Status instead")
        if is_header and USING_NAMESPACE_RE.search(code):
            lint.hit(lineno, "no-using-namespace-in-header",
                     "`using namespace` in a header pollutes every includer")
        if VOID_DISCARD_RE.search(code):
            lint.hit(lineno, "no-void-status-discard",
                     "discarding a call with (void) defeats [[nodiscard]]; "
                     "use .IgnoreError() or handle the result")
        if THROWING_PARSE_RE.search(code):
            lint.hit(lineno, "no-throwing-parse",
                     "std::sto* throws on overflow; use htl::Parse* (util/parse.h)")
        if RAW_THREAD_RE.search(code) and rel not in RAW_THREAD_EXEMPT:
            lint.hit(lineno, "no-raw-thread",
                     "raw std::thread/std::jthread is forbidden outside "
                     "src/util/thread_pool; run work on the shared ThreadPool "
                     "(ParallelFor / Schedule) so it gets the bounded queue, "
                     "cancellation fan-out, and TSan coverage")
        if RAW_MUTEX_RE.search(code) and rel not in RAW_MUTEX_EXEMPT:
            lint.hit(lineno, "no-raw-mutex",
                     "raw std synchronization is forbidden outside "
                     "src/util/mutex.h; use htl::Mutex / htl::MutexLock / "
                     "htl::CondVar (util/mutex.h) so Clang Thread Safety "
                     "Analysis can prove the lock discipline (DESIGN.md "
                     "\"Lock discipline\")")
        if rel not in RAW_SOCKET_EXEMPT and (
                RAW_SOCKET_CALL_RE.search(code) or
                RAW_SOCKET_INCLUDE_RE.search(lint.raw_lines[idx])):
            lint.hit(lineno, "no-raw-socket",
                     "the raw socket API is forbidden outside "
                     "src/net/socket.cc; use the deadline-aware net::Socket "
                     "wrappers (net/socket.h) so every transport path gets "
                     "deadlines, fault points, and drain-safe shutdown "
                     "(DESIGN.md \"Query service\")")


def check_header_guard(lint: FileLint) -> None:
    if "header-guard" not in lint.enabled:
        return
    path, raw_lines = lint.path, lint.raw_lines
    guard = expected_guard(path)
    text_lines = [l.strip() for l in raw_lines]
    try:
        ifndef_idx = next(i for i, l in enumerate(text_lines) if l.startswith("#ifndef"))
    except StopIteration:
        lint.findings.append(Finding(path, 1, "header-guard",
                                     f"missing header guard (expected {guard})"))
        return
    if text_lines[ifndef_idx] != f"#ifndef {guard}":
        lint.findings.append(Finding(path, ifndef_idx + 1, "header-guard",
                                     f"guard should be {guard}"))
        return
    if ifndef_idx + 1 >= len(text_lines) or \
            text_lines[ifndef_idx + 1] != f"#define {guard}":
        lint.findings.append(Finding(path, ifndef_idx + 2, "header-guard",
                                     f"#define {guard} must follow the #ifndef"))
    last_nonempty = next((l for l in reversed(text_lines) if l), "")
    if last_nonempty != f"#endif  // {guard}":
        lint.findings.append(Finding(path, len(text_lines), "header-guard",
                                     f"file must end with `#endif  // {guard}`"))


def check_include_order(lint: FileLint) -> None:
    if "include-order" not in lint.enabled:
        return
    path, raw_lines = lint.path, lint.raw_lines
    includes = []  # (lineno, token) with token like <x> or "y"
    for idx, line in enumerate(raw_lines):
        m = INCLUDE_RE.match(line)
        if m:
            includes.append((idx + 1, m.group(1)))
    if not includes:
        return

    start = 0
    if path.suffix != ".h":
        own = f'"{path.parent.name}/{path.stem}.h"'
        if (REPO_ROOT / "src" / path.parent.name / f"{path.stem}.h").exists():
            first_line, first_tok = includes[0]
            if first_tok == own:
                start = 1
            else:
                lint.findings.append(Finding(
                    path, first_line, "include-order",
                    f"first include of a .cc must be its own header {own}"))

    # Blocks are maximal runs of includes on consecutive lines.
    blocks: list[list[tuple[int, str]]] = []
    for lineno, tok in includes[start:]:
        if blocks and lineno == blocks[-1][-1][0] + 1:
            blocks[-1].append((lineno, tok))
        else:
            blocks.append([(lineno, tok)])

    seen_project_block = False
    for block in blocks:
        kinds = {tok[0] for _, tok in block}
        if kinds == {"<"}:
            if seen_project_block:
                lint.hit(block[0][0], "include-order",
                         "<system> include block after a \"project\" block")
        elif kinds == {'"'}:
            seen_project_block = True
        else:
            lint.findings.append(Finding(
                path, block[0][0], "include-order",
                "mixed <system> and \"project\" includes in one block"))
        toks = [tok for _, tok in block]
        if toks != sorted(toks):
            lint.findings.append(Finding(
                path, block[0][0], "include-order",
                "includes within a block must be sorted alphabetically"))


BARE_TIMER_RE = re.compile(r"\bWallTimer\b|#\s*include\s+\"util/timer\.h\"")


def is_kernel_path(path: Path) -> bool:
    rel = rel_posix(path)
    return rel is not None and (rel.startswith("src/sim/") or
                                rel.startswith("src/engine/"))


def check_no_bare_timer(lint: FileLint, code_lines: list[str]) -> None:
    if not is_kernel_path(lint.path):
        return
    for idx, code in enumerate(code_lines):
        # The include is stripped to whitespace in `code`; test the raw line
        # for it and the code line for the identifier.
        if BARE_TIMER_RE.search(code) or BARE_TIMER_RE.search(lint.raw_lines[idx]):
            lint.hit(idx + 1, "no-bare-timer",
                     "hot-path kernels must not time work with a bare WallTimer; "
                     "use HTL_OBS_SPAN / TraceSpan (src/obs/trace.h) so the timing "
                     "lands in the EXPLAIN profile")


# The designated hot-path kernel files: the operator kernels, the engines'
# evaluators, and the SQL executor. New kernel files belong on this list
# (CONTRIBUTING.md ground rule).
OBS_KERNEL_FILES = {
    "src/engine/direct_engine.cc",
    "src/engine/retrieval.cc",
    "src/sim/list_ops.cc",
    "src/sim/table_ops.cc",
    "src/sql/executor.cc",
}
OBS_REF_RE = re.compile(r"\b(?:HTL_OBS_SPAN|HTL_OBS_COUNT|TraceSpan)\b|\bobs\s*::")


def check_obs_operator_span(lint: FileLint, code: str) -> None:
    if rel_posix(lint.path) not in OBS_KERNEL_FILES:
        return
    if not OBS_REF_RE.search(code):
        lint.hit_file_scoped(
            "obs-operator-span",
            "hot-path kernel file never references the observability layer; "
            "operators must count (HTL_OBS_COUNT) and trace (HTL_OBS_SPAN) "
            "their work, see CONTRIBUTING.md")


LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
EXEC_REF_RE = re.compile(
    r"\b(?:ExecContext|DepthScope|HTL_CHECK_EXEC|ChargeRows|ChargeTable|exec_)\b")


def is_engine_loop_file(path: Path) -> bool:
    if path.suffix != ".cc":
        return False
    rel = rel_posix(path)
    return rel is not None and (rel.startswith("src/engine/") or
                                rel == "src/sql/executor.cc")


def check_exec_context_polling(lint: FileLint, code: str) -> None:
    if not is_engine_loop_file(lint.path):
        return
    if LOOP_RE.search(code) and not EXEC_REF_RE.search(code):
        lint.hit_file_scoped(
            "exec-context-polling",
            "engine-loop file never references the execution context; loops "
            "over segments/rows must poll it (HTL_CHECK_EXEC / ChargeRows), "
            "see CONTRIBUTING.md")


def check_stale_suppressions(lint: FileLint) -> None:
    """Every allow() mention must have suppressed a real would-be finding in
    this run; the rest are stale waivers (or typos) and get reported."""
    if "stale-suppression" not in lint.enabled:
        return
    for idx, raw in enumerate(lint.raw_lines):
        for rule in sorted(allowed_rules(raw)):
            lineno = idx + 1
            if rule not in ALL_RULES:
                lint.findings.append(Finding(
                    lint.path, lineno, "stale-suppression",
                    f"allow({rule}) names an unknown rule (typo?); "
                    "known rules are listed in tools/lint.py"))
            elif rule == "stale-suppression":
                lint.findings.append(Finding(
                    lint.path, lineno, "stale-suppression",
                    "allow(stale-suppression) is not suppressible; "
                    "delete the stale comment instead"))
            elif (lineno, rule) not in lint.used_allows:
                lint.findings.append(Finding(
                    lint.path, lineno, "stale-suppression",
                    f"allow({rule}) suppresses nothing here "
                    "(the rule no longer fires on this line, or is out of "
                    "scope for this file); delete the comment"))


def rules_for(path: Path) -> set[str]:
    """src/ gets the full set; bench/, examples/, and anything else gets the
    portable subset (see module docstring)."""
    rel = rel_posix(path)
    if rel is not None and rel.startswith("src/"):
        return ALL_RULES
    return AUX_RULES


def lint_file(path: Path) -> list[Finding]:
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    lint = FileLint(path, raw_lines, rules_for(path))
    check_line_rules(lint, code_lines)
    if path.suffix in HEADER_EXTS:
        check_header_guard(lint)
    check_include_order(lint)
    check_exec_context_polling(lint, code)
    check_no_bare_timer(lint, code_lines)
    check_obs_operator_span(lint, code)
    check_stale_suppressions(lint)
    return lint.findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/ bench/ examples/)")
    args = parser.parse_args(argv)

    roots = args.paths or [REPO_ROOT / "src", REPO_ROOT / "bench",
                           REPO_ROOT / "examples"]
    files: list[Path] = []
    for root in roots:
        root = root.resolve()
        if root.is_dir():
            files.extend(sorted(p for p in root.rglob("*")
                                if p.suffix in SOURCE_EXTS))
        elif root.suffix in SOURCE_EXTS:
            files.append(root)

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))

    for finding in findings:
        print(finding)
    print(f"lint.py: {len(files)} files checked, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

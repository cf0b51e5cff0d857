#!/usr/bin/env python3
"""Project lint: repo-specific invariants generic tools cannot express.

Wired as a ctest (`hcrf_lint`) and a CI step. Rules, each with the failure
mode it guards against:

  bare-assert     `assert()` compiles away in release builds — exactly
                  where the big sweeps run — so engine invariants must use
                  HCRF_CHECK (src/core/check.h), which always fires.
  console-io      Library code must not print: stdout/stderr belong to the
                  CLI and the report writers. Printing is allowed in the
                  io/ and obs/ layers (serialization and dump surfaces)
                  and in the individually-justified files below.
  nondeterminism  Schedules, sweeps and the synthetic workload must be
                  bit-reproducible across runs and machines; rand()/
                  srand()/std::random_device are banned in src/ (seeded
                  mt19937 et al. are fine — the seed is part of the spec).
  getenv          Library behaviour must not hinge on the process
                  environment, which no cache key, manifest or test sees;
                  the one switch left (HCRF_CHECK_PRESSURE, a safety
                  cross-check) is read in src/core/debug.h and nowhere
                  else in src/.
  naked-thread    All parallelism goes through perf::WorkerPool (and its
                  TaskGroups) so saturation, tracing and shutdown stay
                  centralized; raw std::thread construction outside
                  src/perf/ is a smell (std::thread::id and
                  std::this_thread remain free).
  raw-socket      Socket syscalls (socket/bind/listen/accept/connect/
                  setsockopt/recv/send) concentrate in the daemon's
                  endpoint files, where admission control, timeouts and
                  the drain discipline live; anywhere else they are a
                  second, unreviewed network surface. Framed byte IO on
                  an already-connected fd (wire.cpp) is allowlisted for
                  exactly one syscall: send(MSG_NOSIGNAL), which cannot
                  create or accept a connection and exists so a peer
                  closing mid-write yields EPIPE instead of SIGPIPE.
  placement-funnel
                  Every engine placement/removal must ride the
                  SchedState::Assign/Unassign funnels, which feed the
                  incremental pressure tracker and the cluster usage
                  counters — a direct PartialSchedule::Assign/Unassign
                  (`sched->Assign(...)`, `schedule.Assign(...)`) outside
                  src/sched/ silently desyncs both. Warm-start seeding
                  made this an explicit rule: replayed seed placements
                  are ordinary placements and must be funneled too.
  header-compile  Every header under src/ must compile on its own (a
                  header that leans on its includer's includes breaks the
                  next refactor).
  hygiene         No tabs, no trailing whitespace, newline at EOF.

Usage: hcrf_lint.py --root REPO [--compiler c++] [--skip-headers]
Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# Per-file opt-outs. Every entry must carry a justification — an entry
# without a reason a reviewer can check is a finding in itself.
# --------------------------------------------------------------------------
CONSOLE_IO_ALLOWLIST = {
    "src/core/check.h":
        "invariant-failure diagnostics: prints context to stderr on the "
        "abort path, where no report writer can run anymore",
}

# The one file that reads the process environment: the engine's cached
# debug switch (HCRF_CHECK_PRESSURE). Behaviour that depends on the
# environment is invisible to a cache key, a manifest and a test.
GETENV_ALLOWED_FILE = "src/core/debug.h"

# Directories whose job is writing bytes out: serialization (io/) and the
# observability dump surfaces (obs/).
CONSOLE_IO_ALLOWED_DIRS = ("src/io/", "src/obs/")

# The daemon's two socket endpoints. Everything that can open, accept or
# configure a connection must sit behind these files' admission/timeout/
# drain discipline (service/server.h documents it).
SOCKET_ALLOWLIST = {
    "src/service/server.cpp":
        "the daemon's listening surface: socket/bind/listen/accept and "
        "per-connection timeouts, behind Server's admission control and "
        "graceful-drain contract",
    "src/service/client.cpp":
        "the daemon client's connecting surface: socket/connect plus "
        "timeouts for the one-request-per-connection wire protocol",
    "src/service/wire.cpp":
        "framed byte IO on already-connected fds: send(MSG_NOSIGNAL) so "
        "a peer closing mid-write surfaces as EPIPE, not SIGPIPE; no "
        "syscall here can create or accept a connection",
}

# Raw thread construction is the thread-pool layer's privilege.
NAKED_THREAD_ALLOWED_DIRS = ("src/perf/",)

# Direct placement-table writes are the schedule layer's privilege; the
# engine goes through the SchedState funnels so the pressure tracker and
# cluster counters never miss a delta.
PLACEMENT_FUNNEL_ALLOWLIST = {
    "src/core/sched_state.h":
        "the funnels themselves: SchedState::Assign/Unassign wrap the "
        "placement-table write with the pressure-tracker and cluster-"
        "counter deltas every other engine layer must ride through",
    "src/io/hcl.cpp":
        "deserialization: rebuilding a PartialSchedule from a parsed "
        "result document, where no SchedState (and nothing incremental "
        "to desync) exists",
}
PLACEMENT_FUNNEL_ALLOWED_DIRS = ("src/sched/",)

SOURCE_EXTENSIONS = (".h", ".cpp")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so rules never fire on prose or format strings."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated (raw string etc.) — bail to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def iter_source_files(root, subdir):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def report(self, path, line, rule, message):
        self.findings.append((path, line, rule, message))

    def read(self, rel):
        with open(os.path.join(self.root, rel), encoding="utf-8") as f:
            return f.read()

    # -- text rules --------------------------------------------------------

    def lint_src_file(self, rel):
        raw = self.read(rel)
        code = strip_comments_and_strings(raw)
        lines = code.splitlines()
        in_allowed_io_dir = rel.startswith(CONSOLE_IO_ALLOWED_DIRS)
        io_allowlisted = rel in CONSOLE_IO_ALLOWLIST
        thread_allowed = rel.startswith(NAKED_THREAD_ALLOWED_DIRS)

        for lineno, line in enumerate(lines, start=1):
            if re.search(r"(?<!static_)\bassert\s*\(", line):
                self.report(rel, lineno, "bare-assert",
                            "assert() vanishes in release builds; use "
                            "HCRF_CHECK (src/core/check.h)")
            if not in_allowed_io_dir and not io_allowlisted:
                if re.search(r"#\s*include\s*<iostream>", line):
                    self.report(rel, lineno, "console-io",
                                "<iostream> in library code outside io/obs")
                if re.search(r"std::(cout|cerr|clog)\b", line):
                    self.report(rel, lineno, "console-io",
                                "console stream in library code outside "
                                "io/obs")
                if re.search(r"(?<![\w:])(?:std::)?(?:f|v)?printf\s*\(|"
                             r"(?<![\w:])(?:std::)?(?:fputs|puts|putchar)"
                             r"\s*\(", line):
                    if "snprintf" not in line:
                        self.report(rel, lineno, "console-io",
                                    "printf-family output in library code "
                                    "outside io/obs (snprintf-to-buffer is "
                                    "fine)")
            if re.search(r"(?<![\w:])(?:std::)?s?rand\s*\(|"
                         r"\brandom_device\b", line):
                self.report(rel, lineno, "nondeterminism",
                            "rand()/srand()/random_device in a "
                            "deterministic layer; use a seeded engine")
            if (rel != GETENV_ALLOWED_FILE
                    and re.search(r"\b(?:secure_)?getenv\s*\(", line)):
                self.report(rel, lineno, "getenv",
                            "environment read outside "
                            f"{GETENV_ALLOWED_FILE}; pass a setting "
                            "explicitly instead")
            if not thread_allowed and re.search(r"std::thread(?![\w:])",
                                                line):
                self.report(rel, lineno, "naked-thread",
                            "raw std::thread outside perf/; go through "
                            "perf::WorkerPool")
            if (not rel.startswith(PLACEMENT_FUNNEL_ALLOWED_DIRS)
                    and rel not in PLACEMENT_FUNNEL_ALLOWLIST):
                if re.search(r"\bsched(?:ule)?\s*(?:->|\.)\s*"
                             r"(?:Assign|Unassign)\s*\(", line):
                    self.report(rel, lineno, "placement-funnel",
                                "direct PartialSchedule placement write "
                                "outside sched/; go through the "
                                "SchedState::Assign/Unassign funnels")
            if rel not in SOCKET_ALLOWLIST:
                if re.search(r"#\s*include\s*<sys/(socket|un)\.h>", line):
                    self.report(rel, lineno, "raw-socket",
                                "socket headers outside the daemon "
                                "endpoints (service/server.cpp, "
                                "service/client.cpp)")
                if re.search(r"(?<![\w:.])(?:::)?(socket|bind|listen|"
                             r"accept4?|connect|setsockopt|recvfrom|"
                             r"recvmsg|recv|sendto|sendmsg|send)\s*\(",
                             line):
                    self.report(rel, lineno, "raw-socket",
                                "socket syscall outside the daemon "
                                "endpoints; route connections through "
                                "service::Server / service::Client")

    def lint_hygiene(self, rel):
        raw = self.read(rel)
        for lineno, line in enumerate(raw.splitlines(), start=1):
            if "\t" in line:
                self.report(rel, lineno, "hygiene", "tab character")
            if line != line.rstrip():
                self.report(rel, lineno, "hygiene", "trailing whitespace")
        if raw and not raw.endswith("\n"):
            self.report(rel, len(raw.splitlines()), "hygiene",
                        "missing newline at end of file")

    def check_allowlist_is_current(self):
        for rel in CONSOLE_IO_ALLOWLIST:
            if not os.path.exists(os.path.join(self.root, rel)):
                self.report(rel, 1, "console-io",
                            "stale allowlist entry: file no longer exists")
        for rel in SOCKET_ALLOWLIST:
            if not os.path.exists(os.path.join(self.root, rel)):
                self.report(rel, 1, "raw-socket",
                            "stale allowlist entry: file no longer exists")
        if not os.path.exists(os.path.join(self.root, GETENV_ALLOWED_FILE)):
            self.report(GETENV_ALLOWED_FILE, 1, "getenv",
                        "stale allowlist entry: file no longer exists")
        for rel in PLACEMENT_FUNNEL_ALLOWLIST:
            if not os.path.exists(os.path.join(self.root, rel)):
                self.report(rel, 1, "placement-funnel",
                            "stale allowlist entry: file no longer exists")

    # -- header self-sufficiency ------------------------------------------

    def check_headers_compile(self, compiler, jobs):
        headers = [rel for rel in iter_source_files(self.root, "src")
                   if rel.endswith(".h")]
        include_dir = os.path.join(self.root, "src")

        def compile_one(rel):
            with tempfile.TemporaryDirectory() as tmp:
                tu = os.path.join(tmp, "tu.cpp")
                with open(tu, "w", encoding="utf-8") as f:
                    f.write(f'#include "{rel[len("src/"):]}"\n')
                proc = subprocess.run(
                    [compiler, "-std=c++20", "-fsyntax-only",
                     "-I", include_dir, tu],
                    capture_output=True, text=True)
                return rel, proc.returncode, proc.stderr

        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
            for rel, rc, stderr in ex.map(compile_one, headers):
                if rc != 0:
                    first = stderr.strip().splitlines()
                    detail = first[0] if first else "compiler error"
                    self.report(rel, 1, "header-compile",
                                f"header does not compile on its own: "
                                f"{detail}")
        return len(headers)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="repository root")
    parser.add_argument("--compiler", default="c++",
                        help="C++ compiler for the header-compile rule")
    parser.add_argument("--skip-headers", action="store_true",
                        help="skip the (slower) header-compile rule")
    parser.add_argument("--jobs", type=int,
                        default=max(1, (os.cpu_count() or 2) - 1))
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"hcrf_lint: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    linter.check_allowlist_is_current()

    src_files = list(iter_source_files(root, "src"))
    for rel in src_files:
        linter.lint_src_file(rel)
        linter.lint_hygiene(rel)
    hygiene_only = [rel for sub in ("tests", "tools")
                    for rel in iter_source_files(root, sub)]
    for rel in hygiene_only:
        linter.lint_hygiene(rel)

    headers_checked = 0
    if not args.skip_headers:
        headers_checked = linter.check_headers_compile(args.compiler,
                                                       args.jobs)

    for path, line, rule, message in sorted(linter.findings):
        print(f"{path}:{line}: [{rule}] {message}")
    print(f"hcrf_lint: {len(src_files)} src files, "
          f"{len(hygiene_only)} test/tool files, "
          f"{headers_checked} headers compiled, "
          f"{len(linter.findings)} finding(s)")
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main())

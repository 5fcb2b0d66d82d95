#!/usr/bin/env python3
"""Run the compiled route kernel's tests under AddressSanitizer and UBSan.

    python3 tools/sanitize.py

``route_kernel.c`` reads the topology's arrays and writes the table's by raw
address, so a write one past the end of an array corrupts the Python heap
without any test seeing it.  This script copies ``src``, ``tests``, ``tools``
and ``bench`` into a temporary directory and runs the kernel-facing test
files there, with the kernel built by ``anypath._load_kernel`` under
``SANITIZE_CFLAGS`` into that directory, both as ``anypath._kernel`` (which
builds every table) and in the tests' own ``kernel`` fixtures.

The interpreter runs with ASan preloaded (``cc -print-file-name=libasan.so``)
and ``PYTHONMALLOC=malloc``, so the table arrays come from ``malloc``, which
ASan guards, and not from pymalloc arenas.  Pytest's file-descriptor capture
would swallow a report, so ASan writes to a log directory, and any file there
is a report.  UBSan, loaded with the kernel beside a preloaded ASan, ignores
``log_path`` and writes to standard error, so pytest runs with
``--capture=sys``, which leaves file descriptor 2 to this script, and a
sanitizer line on it is a report too.

It first runs two self-checks, on copies whose kernel has a seeded fault that
must be reported: a write of ``ranked[n]``, one past the end of the ranked
array (ASan), and a signed overflow in the returned count (UBSan).  Then it
runs the tests on the kernel as it is: they must pass, with no report.  It
prints one line per run and its reports, and exits 0 when all three hold, 1
otherwise.  Only the standard library is used; it is not part of the tier-1
tests, and takes about a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SANITIZE_CFLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                   "-fno-omit-frame-pointer", "-ffp-contract=off", "-shared", "-fPIC")
TESTS = ("test_route_kernel.py", "test_anypath.py", "test_acceptance.py", "test_embedder.py",
         "test_bench_workloads.py")
# the self-checks' seeded faults, each a substitution in route_kernel.c
FAULTS = {
    "ranked[n] = 0": ("    status = reached;\n", "    ranked[n] = 0;\n    status = reached;\n"),
    "reached + INT_MAX": ("    status = reached;\n", "    status = reached + 2147483647;\n"),
}
SANITIZER_LINE = ("runtime error:", "ERROR: AddressSanitizer")

# loaded by pytest with -p before any test: every table, and every kernel the
# tests build, comes from a build with the sanitizer flags
PLUGIN = """\
from pathlib import Path
from anypath_vne import anypath
anypath._CFLAGS = {flags!r}
anypath._kernel, anypath.KERNEL_REASON = anypath._load_kernel(Path({build!r}))
if anypath._kernel is None:
    raise RuntimeError(f"sanitized kernel: {{anypath.KERNEL_REASON}}")
anypath._table.cache_clear()
"""


def copy_tree(target: Path, fault: tuple | None) -> None:
    """The parts of the repository the tests read, into target, with the
    substitution fault, when given, made in the kernel source."""
    junk = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".bench_run")
    for name in ("src", "tests", "tools", "bench"):
        shutil.copytree(ROOT / name, target / name, ignore=junk)
    shutil.copy2(ROOT / "pyproject.toml", target)
    if fault:
        kernel = target / "src" / "anypath_vne" / "route_kernel.c"
        source = kernel.read_text()
        if source.count(fault[0]) != 1:
            raise SystemExit(f"sanitize: {fault[0].strip()!r} is not in route_kernel.c once")
        kernel.write_text(source.replace(*fault))


def run(libasan: str, fault: tuple | None) -> tuple[int, str, list]:
    """(pytest's exit status, its last output line, the sanitizer reports)
    of the test files on a copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="sanitize-") as temp:
        temp = Path(temp)
        tree, logs = temp / "tree", temp / "asan"
        copy_tree(tree, fault)
        logs.mkdir()
        (temp / "plugin").mkdir()
        (temp / "plugin" / "sanitized_kernel.py").write_text(
            PLUGIN.format(flags=SANITIZE_CFLAGS, build=str(temp / "build")))
        env = dict(os.environ, LD_PRELOAD=libasan, PYTHONMALLOC="malloc",
                   ASAN_OPTIONS=f"detect_leaks=0,log_path={logs / 'asan'}",
                   UBSAN_OPTIONS="print_stacktrace=1",
                   PYTHONPATH=os.pathsep.join([str(tree / "src"), str(temp / "plugin")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--capture=sys", "-p", "sanitized_kernel",
             "-p", "no:cacheprovider", *(f"tests/{name}" for name in TESTS)],
            cwd=tree, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        reports = [f"{path.name}: {first_error(path.read_text(errors='replace'))}"
                   for path in sorted(logs.iterdir())]
        if any(mark in proc.stderr for mark in SANITIZER_LINE):
            reports.append(f"stderr: {first_error(proc.stderr)}")
        return proc.returncode, lines[-1] if lines else "(no summary)", reports


def first_error(text: str) -> str:
    """The first line of a sanitizer's output that names an error."""
    lines = text.splitlines()
    return next((line.strip() for line in lines if any(mark in line for mark in SANITIZER_LINE)),
                lines[0].strip() if lines else "(empty)")


def main() -> int:
    cc = shutil.which("cc")
    if cc is None:
        print("sanitize: cc not found", file=sys.stderr)
        return 1
    libasan = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(libasan):
        print(f"sanitize: cc has no libasan.so ({libasan!r})", file=sys.stderr)
        return 1
    ok = True
    for name, fault in [*(("self-check " + name, fault) for name, fault in FAULTS.items()),
                        ("kernel", None)]:
        status, summary, reports = run(libasan, fault)
        print(f"{name}: pytest exit {status}: {summary}")
        for report in reports:
            print(f"  report {report}")
        if fault and not reports:
            print("  FAIL: the seeded fault was not reported")
            ok = False
        if not fault and (reports or status != 0):
            print("  FAIL: the tests must pass with no sanitizer report")
            ok = False
    print("sanitize:", "clean" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

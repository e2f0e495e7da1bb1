#!/usr/bin/env python3
"""Build and run the PACE-VM benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-pa --seed 1 --seconds 12 --trace 0

Builds pacevm-serve and the perfbench binary from source into
.bench_build/ (the Go build cache included, so nothing is written outside
the checkout), then runs the benchmark with the given arguments. The last
line of its standard output is the JSON result. Exits non-zero, without a
result, when the build or any output check fails.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170

# Where Go's installers put the toolchain, tried when `go` is not on PATH
# (a minimal environment often has only /usr/bin:/bin).
GO_INSTALL_DIRS = ["/usr/local/go/bin", "/usr/lib/go/bin"]


def find_go(env):
    """Return the go command: from PATH, then $GOROOT/bin, then the usual
    install directories; None when there is none."""
    found = shutil.which("go", path=env.get("PATH", os.defpath))
    if found:
        return found
    dirs = [os.path.join(env["GOROOT"], "bin")] if env.get("GOROOT") else []
    return shutil.which("go", path=os.pathsep.join(dirs + GO_INSTALL_DIRS))


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    bin_dir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        # No VCS stamping: the checkout may sit inside a repository that
        # git refuses to read, which would fail the build.
        GOFLAGS="-mod=readonly -buildvcs=false",
        CGO_ENABLED="0",
    )
    env.setdefault("HOME", build)
    go = find_go(env)
    if go is None:
        print("run.py: no go toolchain found on PATH, in $GOROOT/bin or in "
              + ", ".join(GO_INSTALL_DIRS), file=sys.stderr)
        return 1
    builds = [
        (root, os.path.join(bin_dir, "pacevm-serve"), "./cmd/pacevm-serve"),
        (bench_dir, os.path.join(bin_dir, "perfbench"), "."),
    ]
    for cwd, out, pkg in builds:
        done = subprocess.run([go, "build", "-o", out, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: building {pkg} in {cwd} failed", file=sys.stderr)
            return 1

    cmd = [os.path.join(bin_dir, "perfbench"),
           "-serve-bin", os.path.join(bin_dir, "pacevm-serve"),
           "-work-dir", os.path.join(build, "work")]
    cmd += ["-" + a[2:] if a.startswith("--") else a for a in sys.argv[1:]]
    # A session of its own, so a timeout stops the benchmark's children
    # (simulator parts and pacevm-serve) along with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    # Whatever is left of the session (a service whose driver crashed,
    # or everything after a timeout) is stopped here.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())

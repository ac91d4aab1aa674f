#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe with dune into .bench_build (dune's shared
cache disabled, so nothing is written outside the working directory),
then runs it with the same arguments. The last line the executable
prints on stdout is the result JSON; build output goes to stderr.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700


def run_timeout(argv):
    """Seconds the run may take: three times its --seconds plus a minute
    for the checks and set-up around the measurement."""
    seconds = 30
    if "--seconds" in argv[:-1]:
        try:
            seconds = int(argv[argv.index("--seconds") + 1])
        except ValueError:
            pass
    return 3 * seconds + 60


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: no library sources here (dune-project, lib/); "
            "run from the repository root\n"
        )
        return 2
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "cache"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--cache=disabled", "--display=quiet", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return 1
        return subprocess.run([EXE] + sys.argv[1:], env=env,
                              timeout=run_timeout(sys.argv)).returncode
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (e.cmd[0], e.timeout))
        return 1
    except OSError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

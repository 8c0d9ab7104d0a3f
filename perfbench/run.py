#!/usr/bin/env python3
"""Entity-group-matching benchmark: one timed run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. On first use it builds the program's
sources (src/main/scala) together with the benchmark (perfbench/src)
with sbt, offline; later runs reuse the build while the sources are
unchanged. It then starts the benchmark (perfbench.Bench) in a fresh JVM
with Spark in local mode, and passes its standard output through: a settings line,
then the result as one JSON object on the last line. Build and JVM logs go
to standard error. Everything the run writes stays under perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
TARGET = HERE / "target"
CLASSPATH = TARGET / "classpath.txt"
STAMP = TARGET / "build.stamp"
OUT = HERE / "out"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"

# Module opens that spark-submit passes to a JDK 17 driver.
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sources_stamp():
    """Hash of every file the build reads, plus where the checkout is."""
    h = hashlib.sha256(str(ROOT).encode())
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (PROGRAM_SOURCES, HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        sys.exit("perfbench: no Spark distribution found (set SPARK_HOME)")
    return home


def build(env):
    stamp = sources_stamp()
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == stamp:
        return
    log("building the program and the benchmark with sbt")
    sbt_opts = env.get("SBT_OPTS", "").split()
    if not any(o.startswith("-Dsbt.offline") for o in sbt_opts):
        sbt_opts.append("-Dsbt.offline=true")
    repos = Path.home() / ".sbt" / "repositories"
    if repos.is_file() and not any(o.startswith("-Dsbt.repository.config") for o in sbt_opts):
        sbt_opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    tmp = TARGET / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # keep sbt's own scratch files (temp dir, native-library extraction,
    # JVM perf data, boot lock) out of the home and /tmp directories
    sbt_env = dict(env, COURSIER_MODE="offline", SBT_OPTS=" ".join(sbt_opts), TMPDIR=str(tmp),
                   JAVA_TOOL_OPTIONS="-XX:-UsePerfData")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.boot.lock=false", f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}",
           "writeClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, env=sbt_env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not CLASSPATH.is_file():
        sys.exit(f"perfbench: build failed (sbt exit {proc.returncode})")
    STAMP.write_text(stamp)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").is_file():
        return str(Path(home) / "bin" / "java")
    return "java"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not PROGRAM_SOURCES.is_dir():
        sys.exit(f"perfbench: the program's sources ({PROGRAM_SOURCES.relative_to(ROOT)}) "
                 "are missing; run from the root of a full checkout")

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    build(env)

    tmp = OUT / "tmp"
    local_dirs = OUT / "spark-local"
    for d in (tmp, local_dirs):
        d.mkdir(parents=True, exist_ok=True)
    env["SPARK_LOCAL_DIRS"] = str(local_dirs)
    env["TMPDIR"] = str(tmp)
    env.pop("SPARK_MASTER", None)
    cmd = ([java_bin(), f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in JVM_OPENS]
           + ["-cp", CLASSPATH.read_text().strip(), "perfbench.Bench",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", str(OUT)])
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        sys.exit(f"perfbench: benchmark JVM failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: benchmark JVM printed no result")
    log(f"run took {time.monotonic() - t0:.1f} s")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()

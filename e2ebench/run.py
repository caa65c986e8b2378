#!/usr/bin/env python3
"""End-to-end benchmark of the fglb scenario simulator.

Builds the simulator from the sources next to this directory, runs one
workload for a fixed host-time budget and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. See README.md in this directory for the workloads and metrics.

    python3 e2ebench/run.py --workload overload --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --bless     # re-record expected.json

Every iteration runs the tree's own fglb_sim or fglb_replay, built with
the benchmark's phase timers (timer.cc) and, for the ledger, its
interceptors (wraps.cc), in its own process, so its peak RSS is its own.
A run iterates over the workload's pool of simulator seeds in whole
passes, starting at the pool position --seed selects, until --seconds
have passed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Simulator seeds a run cycles through. Each has an expected digest per
# workload in expected.json.
SIM_SEEDS = (1, 2, 3, 4)

# fglb_sim flags of each live workload; `capture` also writes the
# FGLBCAP1 capture, the JSONL decision trace and 1-in-64 sampled spans.
LIVE_FLAGS = {
    "overload": ["--scenario=overload", "--duration=300"],
    "tier-thrash": ["--scenario=tier-thrash"],
    "capture": ["--scenario=consolidation"],
}
CAPTURE_OUTPUTS = ("capture-out", "trace-out", "spans-out")
WORKLOADS = ("overload", "tier-thrash", "capture", "replay")

# Entry points the traced run must see called (hit) or never called
# (bypass) on each workload. A refactor that turns one of these calls
# into a virtual or same-file call fails the run instead of silently
# moving its time into sim.self_s.
COVERAGE = {
    "overload": {
        "hit": ["sim", "workload", "engine", "cluster.run",
                "cluster.end_interval", "engine.end_interval",
                "core.detect"],
        "bypass": ["mrc.diagnose", "mrc.recompute", "core.plan",
                   "replay.write", "trace.emit", "trace.span"],
    },
    "tier-thrash": {
        "hit": ["sim", "workload", "engine", "cluster.run",
                "cluster.end_interval", "engine.end_interval",
                "core.detect", "core.plan", "mrc.diagnose", "mrc.recompute"],
        "bypass": ["replay.write", "trace.emit", "trace.span"],
    },
    "capture": {
        "hit": ["sim", "workload", "engine", "cluster.run",
                "cluster.end_interval", "engine.end_interval",
                "core.detect", "mrc.diagnose", "mrc.recompute",
                "replay.write", "trace.emit", "trace.span"],
        "bypass": [],
    },
    "replay": {
        "hit": ["sim", "engine", "cluster.run", "cluster.end_interval",
                "engine.end_interval", "core.detect", "mrc.diagnose",
                "mrc.recompute", "trace.span"],
        "bypass": ["workload", "replay.write", "trace.emit"],
    },
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Output sizes the per-layer metrics report, from the files themselves.
FILE_METRICS = ("replay.capture_bytes", "trace.bytes")

ITERATION_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the build directory when set, relative to
    # the tree's root; .bench_build at the root otherwise.
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures and builds the benchmark programs; returns their paths."""
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logfile, "w") as f:
        for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed; see " + str(logfile))
    bins = {name: out / name for name in (
        "e2e_sim", "e2e_sim_traced", "e2e_replay", "e2e_replay_traced",
        "ledger_test")}
    test = subprocess.run([str(bins["ledger_test"])], capture_output=True,
                          text=True)
    if test.returncode:
        raise BenchError("ledger_test failed:\n" + test.stderr)
    return bins


def sha256_files(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def run_process(cmd, outdir):
    """Runs cmd with E2E_OUT=outdir, its stdout and stderr going to files
    there; returns (exit code, peak RSS in MB)."""
    env = dict(os.environ, E2E_OUT=str(outdir))
    with open(outdir / "stdout.txt", "wb") as out, \
            open(outdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        deadline = time.monotonic() + ITERATION_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code:
        err = (outdir / "stderr.txt").read_text(errors="replace").strip()
        log("iteration failed (%d): %s %s" % (code, " ".join(cmd), err[-2000:]))
    return code, usage.ru_maxrss / 1024.0


class Workload:
    """Runs iterations of one workload and checks their output."""

    def __init__(self, name, bins, work, expected, toolchain_note=""):
        self.name = name
        self.bins = bins
        self.work = work
        self.expected = expected
        self.toolchain_note = toolchain_note
        work.mkdir(parents=True, exist_ok=True)

    def sim_flags(self, sim_seed, outdir):
        flags = LIVE_FLAGS[self.name] + ["--seed=%d" % sim_seed,
                                         "--log-level=quiet"]
        if self.name == "capture":
            flags += ["--%s=%s" % (key, outdir / key) for key in CAPTURE_OUTPUTS]
        return flags

    def capture_path(self, sim_seed):
        return self.work / ("input-%d" % sim_seed) / "capture-out"

    def prepare(self, sim_seeds):
        """Records the replay inputs, before any timing: the capture
        workload's iteration at each seed, digest-checked."""
        if self.name != "replay":
            return
        capture = Workload("capture", self.bins, self.work, self.expected,
                           self.toolchain_note)
        for s in sim_seeds:
            outdir = self.capture_path(s).parent
            if capture.iterate(s, False, outdir.name) is None:
                raise BenchError("cannot record the replay capture")

    def command(self, sim_seed, traced, outdir):
        tool = "replay" if self.name == "replay" else "sim"
        cmd = [str(self.bins["e2e_%s%s" % (tool, "_traced" if traced else "")])]
        if self.name == "replay":
            # --mrc-threads=0: the analysis pool size live runs use.
            return cmd + [str(self.capture_path(sim_seed)), "--mrc-threads=0"]
        return cmd + self.sim_flags(sim_seed, outdir)

    def iterate(self, sim_seed, traced, tag):
        """One iteration; returns its measurements, or None if it failed."""
        outdir = self.work / tag
        outdir.mkdir(exist_ok=True)
        # The last iteration's files go first, so that set-up creates its
        # outputs instead of truncating large ones.
        for stale in ("report.txt", "actions.txt", "result.json") + \
                CAPTURE_OUTPUTS:
            (outdir / stale).unlink(missing_ok=True)
        code, rss_mb = run_process(self.command(sim_seed, traced, outdir),
                                   outdir)
        if code:
            return None
        result = json.loads((outdir / "result.json").read_text())
        result["peak_rss_mb"] = rss_mb
        result["digest"] = sha256_files(outdir / "report.txt",
                                        outdir / "actions.txt")
        result["sim_seed"] = sim_seed
        want = self.expected.get(self.name, {}).get(str(sim_seed))
        if self.expected and result["digest"] != want:
            log("%s seed %d: digest %s, expected %s%s" % (
                self.name, sim_seed, result["digest"], want,
                self.toolchain_note))
            return None
        # fglb_sim prints the report the digest covers; nothing after the
        # timed phase may change it.
        if self.name != "replay" and ((outdir / "stdout.txt").read_bytes() !=
                                      (outdir / "report.txt").read_bytes()):
            log("%s seed %d: fglb_sim printed another report than the one "
                "at the end of the timed phase" % (self.name, sim_seed))
            return None
        if traced:
            result["metrics"].update(self.file_metrics(sim_seed, outdir))
            if not self.covered(result):
                return None
        return result

    def file_metrics(self, sim_seed, outdir):
        def size(path):
            return path.stat().st_size if path.exists() else 0
        capture = (self.capture_path(sim_seed) if self.name == "replay"
                   else outdir / "capture-out")
        return {
            "replay.capture_bytes": {"value": size(capture), "unit": "B"},
            "trace.bytes": {"value": size(outdir / "trace-out") +
                            size(outdir / "spans-out"), "unit": "B"},
        }

    def covered(self, result):
        calls = result["calls"]
        bad = [k for k in COVERAGE[self.name]["hit"] if calls[k] == 0]
        bad += [k for k in COVERAGE[self.name]["bypass"] if calls[k] != 0]
        if bad:
            log("%s: entry points off their predicted hit/bypass: %s" % (
                self.name, ", ".join("%s=%d" % (k, calls[k]) for k in bad)))
            return False
        return True


def pool_order(seed):
    start = seed % len(SIM_SEEDS)
    return SIM_SEEDS[start:] + SIM_SEEDS[:start]


def measure(workload, seed, seconds, trace):
    """Runs whole passes over the seed pool until `seconds` have passed."""
    order = pool_order(seed)
    workload.prepare(order)
    untraced, traced, pairs = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    passes = 0
    while passes == 0 or time.monotonic() - start < seconds:
        for sim_seed in order:
            # Per-seed output directories are reused, so a run's disk use
            # does not grow with its length.
            u = workload.iterate(sim_seed, False, "s%d-untraced" % sim_seed)
            attempted += 1
            if u is None:
                failed += 1
            else:
                untraced.append(u)
            if trace:
                t = workload.iterate(sim_seed, True, "s%d-traced" % sim_seed)
                attempted += 1
                if t is None or (u is not None and t["digest"] != u["digest"]):
                    failed += 1
                else:
                    traced.append(t)
                    if u is not None:
                        pairs.append((u, t))
        passes += 1
    return untraced, traced, pairs, attempted, failed


def median_of(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced):
    rows = {
        "run_s": [r["run_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "accesses_per_s": [r["accesses"] / r["run_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    return {name: {"value": median_of(v), "unit": END_TO_END_UNITS[name]}
            for name, v in rows.items()}


def per_layer(traced, pairs):
    metrics = {}
    if traced:
        for name, first in traced[0]["metrics"].items():
            metrics[name] = {
                "value": median_of([t["metrics"][name]["value"] for t in traced]),
                "unit": first["unit"]}
    metrics["ledger.trace_overhead"] = {
        "value": median_of([t["run_s"] / u["run_s"] for u, t in pairs]),
        "unit": "ratio"}
    return metrics


def compiler_version(out):
    """The compiler CMake configured, as "<id> <version>"."""
    return (out / "compiler.txt").read_text().strip()


def toolchain_note(blessed, used):
    if blessed == used:
        return ""
    log("toolchain mismatch: expected.json was blessed with %s, this build "
        "uses %s; digests are toolchain-specific" % (blessed, used))
    return " (toolchain mismatch: blessed with %s, built with %s)" % (
        blessed, used)


def is_source(path):
    """Whether a path under the tree is a source rather than something a
    build, a test or a run left behind."""
    parts = path.relative_to(ROOT).parts
    return not any(p.startswith(".") or p == "__pycache__" for p in parts)


def source_identity():
    """The commit when the tree is a git checkout, and a digest of the
    sources either way (the benchmark also runs in exported trees)."""
    commit = None
    try:
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    out = build_dir()
    for top in ("src", "tools", "e2ebench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and is_source(p) and out not in p.parents:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return commit, h.hexdigest()


def run(args):
    out = build_dir()
    bins = build(out)
    blessed = json.loads(EXPECTED.read_text())
    workload = Workload(args.workload, bins, out / "work" / args.workload,
                        blessed["digests"],
                        toolchain_note(blessed["compiler"],
                                       compiler_version(out)))
    untraced, traced, pairs, attempted, failed = measure(
        workload, args.seed, args.seconds, args.trace)
    metrics = per_layer(traced, pairs) if args.trace else end_to_end(untraced)
    for name in metrics:
        if not NAME_RE.match(name):
            raise BenchError("malformed metric name " + name)
    commit, source = source_identity()
    info = {
        "workload": args.workload, "seed": args.seed,
        "sim_seeds": list(pool_order(args.seed)),
        "samples": len(traced) if args.trace else len(untraced),
        "commit": commit, "source_sha256": source,
        "nproc": os.cpu_count(), "compiler": compiler_version(out),
        "mrc_threads": sorted({r["mrc_threads"] for r in untraced + traced}),
        "runs": attempted, "runs_failed": failed,
    }
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def bless():
    """Records the expected digest of every workload at every pool seed."""
    out = build_dir()
    bins = build(out)
    digests = {}
    for name in WORKLOADS:
        workload = Workload(name, bins, out / "work" / ("bless-" + name), {})
        workload.prepare(SIM_SEEDS)
        digests[name] = {}
        for s in SIM_SEEDS:
            result = workload.iterate(s, False, "s%d" % s)
            if result is None:
                raise BenchError("cannot bless %s at seed %d" % (name, s))
            digests[name][str(s)] = result["digest"]
            log("%s seed %d: %s" % (name, s, result["digest"]))
    EXPECTED.write_text(json.dumps({
        "compiler": compiler_version(out), "digests": digests},
        indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true")
    args = parser.parse_args()
    try:
        if args.bless:
            bless()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            run(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness at tiny sizes (m=20, 2 trials, 20x20
PHT inputs).

    python3 perfbench/selftest.py

* Runs every workload of run.py once untraced and once traced, each in a
  fresh interpreter, and requires every metric BENCHMARK.json names, with
  its unit, and no failed op.
* Damages an output file of each workload between op and check, and
  requires that op to be counted as failed.
* Requires run.py to fail, printing no result, in a directory that holds
  only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
RUN = Path(run.__file__).resolve()
SCRATCH = ROOT / ".perfbench_out" / "selftest"


class SelfTestError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise SelfTestError(message)


def run_workload(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{workload}: result keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace={trace}: {result['failed']}/{result['attempted']} ops failed")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    require(set(got) == {m["name"] for m in want},
            f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in want:
        value = got[m["name"]]
        require(value["unit"] == m["unit"] and isinstance(value["value"], (int, float)),
                f"{workload}: metric {m['name']} is {value}")
    fail_line = [ln for ln in lines if ln.split()[:1] == ["fail_frac"]]
    require(len(fail_line) == 1 and float(fail_line[0].split()[1]) == 0.0
            and fail_line[0].split()[2] == "ratio",
            f"{workload} trace={trace}: fail_frac line {fail_line}")
    if trace:
        require(any(ln.startswith("span table") for ln in lines), f"{workload}: no span table")


def damage(path):
    """Change the first data line of a PHT or CSV output file."""
    lines = path.read_text(encoding="ascii").splitlines()
    if path.suffix == ".pht":
        lines[1] = " ".join(repr(float(tok) + 1.0) for tok in lines[1].split())
    else:
        lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def check_perturbation():
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from tracer import Tracer

    require(set(harness.WORKLOADS) == set(run.WORKLOADS), "run.py and harness.py list different workloads")
    for name, cls in harness.WORKLOADS.items():
        workdir = SCRATCH / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload = cls(0, harness.SCALES["tiny"], workdir)
        workload.setup()
        tracer = Tracer()
        clean = harness.attempt(workload, tracer, 0, traced=False)
        require(clean.ok, f"{name}: clean op failed")
        target = workload.outputs()[0]
        bad = harness.attempt(workload, tracer, 1, traced=False,
                              perturb=lambda w: damage(target))
        require(not bad.ok, f"{name}: damaged {target.name} was not counted as failed")
        shutil.rmtree(workdir)


def check_bare_directory():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(RUN.parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose-m300", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    require(proc.returncode != 0 and not proc.stdout.strip(),
            f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            run_workload(workload, trace, spec)
            print(f"ok  {workload} trace={trace}")
    check_perturbation()
    print("ok  damaged outputs count as failed ops")
    check_bare_directory()
    print("ok  no result without the sources")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)

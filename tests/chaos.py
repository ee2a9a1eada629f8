"""Chaos driver: kill a journaled campaign repeatedly, assert resume-to-identical.

Runs one campaign manifest to completion uninterrupted, then replays it
under ``REPRO_CHAOS`` — the process SIGKILLs itself at a seeded random
cell boundary — resuming after every kill until the run completes, and
asserts that the final records are **byte-identical** to the
uninterrupted run's.  This is the executable form of the checkpoint
subsystem's contract (see docs/robustness.md), used by CI's chaos-smoke
step and runnable by hand::

    $ PYTHONPATH=src python tests/chaos.py campaigns/table3_lumi.toml \\
          --workers 2 --seed 11 --min-kills 3

Exit code 0 when the chaos loop converged byte-identically; 1 on any
divergence, unexpected exit code, or a loop that fails to converge.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: exit codes the chaos loop treats as "killed as planned, resume and go on"
KILLED_CODES = {
    -9, 137,   # SIGKILL (signal=kill, the default)
    9,         # graceful drain (signal=term / signal=int)
}


def run_repro(args, *, env=None, check=False) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src", **(env or {})},
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repro {args[0]} failed with {proc.returncode}")
    return proc


def chaos_loop(
    manifest: str,
    workdir: Path,
    *,
    workers: int | None,
    seed: int,
    kill_after: int,
    signal_mode: str,
    max_attempts: int,
) -> tuple[Path, int]:
    """Kill/resume until the campaign completes; returns (records, kills)."""
    journal_dir = workdir / "journal"
    out = workdir / "chaos_records.json"
    base = ["campaign", manifest, "--journal", str(journal_dir),
            "--format", "json", "--output", str(out)]
    if workers:
        base += ["--workers", str(workers)]
    rng = random.Random(seed)
    kills = 0
    for attempt in range(max_attempts):
        chaos = f"kill_after={kill_after},seed={rng.randrange(1 << 30)}"
        if signal_mode != "kill":
            chaos += f",signal={signal_mode}"
        cmd = base + (["--resume"] if attempt else [])
        proc = run_repro(cmd, env={"REPRO_CHAOS": chaos})
        if proc.returncode == 0:
            print(f"  converged after {kills} kill(s), {attempt + 1} run(s)")
            return out, kills
        if proc.returncode not in KILLED_CODES:
            sys.stderr.write(proc.stderr)
            raise SystemExit(
                f"unexpected exit code {proc.returncode} on attempt {attempt}"
            )
        kills += 1
    raise SystemExit(f"no convergence after {max_attempts} attempts")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", help="campaign manifest to torture")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos boundary RNG seed (default: 7)")
    parser.add_argument("--kill-after", type=int, default=2, metavar="N",
                        help="kill boundary drawn from [1, N] per run "
                        "(default: 2)")
    parser.add_argument("--signal", choices=("kill", "term", "int"),
                        default="kill", dest="signal_mode",
                        help="how the chaos harness kills the run "
                        "(default: kill = SIGKILL)")
    parser.add_argument("--min-kills", type=int, default=3,
                        help="fail unless the loop killed the campaign at "
                        "least this many times (default: 3)")
    parser.add_argument("--max-attempts", type=int, default=64)
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for inspection")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        print(f"# uninterrupted reference run: {args.manifest}")
        ref = workdir / "ref_records.json"
        base = ["campaign", args.manifest, "--format", "json",
                "--output", str(ref)]
        if args.workers:
            base += ["--workers", str(args.workers)]
        run_repro(base, check=True)

        print(f"# chaos loop: kill_after<={args.kill_after}, "
              f"signal={args.signal_mode}, seed={args.seed}")
        out, kills = chaos_loop(
            args.manifest, workdir,
            workers=args.workers, seed=args.seed,
            kill_after=args.kill_after, signal_mode=args.signal_mode,
            max_attempts=args.max_attempts,
        )
        if kills < args.min_kills:
            print(f"FAIL: only {kills} kill(s) < --min-kills {args.min_kills} "
                  "(grid too small or kill_after too large?)")
            return 1
        if ref.read_bytes() != out.read_bytes():
            print("FAIL: resumed records differ from the uninterrupted run")
            return 1
        print(f"OK: byte-identical after {kills} kill(s)")
        return 0
    finally:
        if args.keep:
            print(f"# scratch kept at {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

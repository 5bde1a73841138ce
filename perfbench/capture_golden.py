"""Write golden.json: the expected outputs the benchmark checks every run against.

It holds the stdout bytes of the CLI commands the workloads run and a
SHA-256 digest of every codec-long input set's word pairs. Capture it only
at a commit whose outputs are trusted, since later commits must reproduce
it byte for byte:

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import gen
import run

COMMANDS = (
    ["verify", "--k", "6", "-n", "7"],
    ["verify", "--k", "5", "-n", "5"],
)


def digest(inputs) -> str:
    from permcodec import codec

    return hashlib.sha256("".join(
        run.pair_line(k, codec.encode_avoider(p, k)) for p, k in inputs).encode()).hexdigest()


def main() -> int:
    run.locate_program()
    run.build_once()
    sys.path.insert(0, str(run.SRC))
    tmp = run.BUILD_DIR / "golden"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        stdout = {}
        for argv in COMMANDS:
            result = run.launch(["-m", "permcodec", *argv, "--cache", str(tmp / "c.jsonl")],
                                tmp, run.child_env())
            if result.rc != 0:
                sys.exit(f"{' '.join(argv)} exited {result.rc}")
            stdout[" ".join(argv)] = result.stdout
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    golden = {
        "stdout": stdout,
        "codec_digests": [digest(gen.codec_inputs(s)) for s in range(gen.INPUT_SETS)],
        "light_digest": digest(run.light_codec_inputs()),
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

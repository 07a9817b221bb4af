"""Generated programs are reproducible and held out from registered ones."""

import json
import os
import subprocess
import sys
from pathlib import Path

import programs

BENCH_DIR = Path(programs.__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

_DIGESTS = """
import json, programs
print(json.dumps({label: programs.program_digest(programs.build_program(label, kernel, params))
                  for specs in programs.PROGRAMS.values()
                  for label, kernel, params in specs}))
"""


def _digests_under(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(SRC_DIR)]))
    completed = subprocess.run([sys.executable, "-c", _DIGESTS], env=env,
                               capture_output=True, text=True, timeout=300,
                               check=True)
    return json.loads(completed.stdout)


def test_programs_identical_across_hash_seeds():
    first = _digests_under("0")
    assert first == _digests_under("4242")
    assert len(first) == sum(len(specs) for specs in programs.PROGRAMS.values())


def test_programs_are_held_out_from_registered_workloads():
    from repro.workloads.suites import all_workloads

    registered = {w.name for w in all_workloads()}
    shapes = {(w.kernel, json.dumps(w.params, sort_keys=True)) for w in all_workloads()}
    for specs in programs.PROGRAMS.values():
        for label, kernel, params in specs:
            assert label not in registered
            assert (kernel, json.dumps(params, sort_keys=True)) not in shapes


def test_program_seed_is_crc32_of_seed_and_label():
    import zlib

    assert programs.program_seed("bench-x", 7) == zlib.crc32(b"7:bench-x") & 0x7FFFFFFF
    assert programs.program_seed("bench-x", 7) != programs.program_seed("bench-y", 7)

"""A run leaves no process behind: the resource tracker and stray children are stopped.

Each check runs in a fresh interpreter, so the processes it kills are
its own and never the test runner's.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def _run(body: str) -> str:
    script = f"import sys\nsys.path.insert(0, {str(HERE)!r})\n" + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_stop_resource_tracker_waits_for_it():
    out = _run("""
        from multiprocessing import resource_tracker, shared_memory
        from measure import alive, stop_resource_tracker
        segment = shared_memory.SharedMemory(create=True, size=16)
        segment.close()
        segment.unlink()
        pid = resource_tracker._resource_tracker._pid
        stop_resource_tracker()
        stop_resource_tracker()  # idempotent
        print(pid is not None, alive(pid))
    """)
    assert out == "True False"


def test_reap_children_kills_and_collects_strays():
    out = _run("""
        import os, subprocess, sys
        from measure import alive, descendants, reap_children
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        reaped = reap_children()
        print(reaped == [child.pid], alive(child.pid), descendants(os.getpid()), reap_children())
    """)
    assert out == "True False [] []"

"""Run a command in a fresh child process and read its peak RSS.

    from fresh_child import peak_run
    out, peak_mib = peak_run([sys.executable, "-m", "schur_orbits.cli", ...],
                             5, 15)

peak_run starts a fresh Python process, this file run as a script, that
runs the command with the first timeout, copies its stdout and prints
ru_maxrss of RUSAGE_CHILDREN.  The fresh process has no other child, so
that is the command's own peak.  The fresh process is given the second
timeout.  Either one failing or running over raises
subprocess.CalledProcessError or subprocess.TimeoutExpired.  The CI
workflow's memory-bound steps call it; pytest does not collect it.
"""

import resource
import subprocess
import sys


def peak_run(argv, timeout, wrapper_timeout):
    """(stdout bytes, peak RSS in MiB) of argv run in a fresh child."""
    p = subprocess.run([sys.executable, __file__, str(timeout), *argv],
                       capture_output=True, check=True,
                       timeout=wrapper_timeout)
    return p.stdout, int(p.stderr.split()[-1]) / 1024


if __name__ == "__main__":
    p = subprocess.run(sys.argv[2:], capture_output=True, check=True,
                       timeout=float(sys.argv[1]))
    sys.stdout.buffer.write(p.stdout)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
          file=sys.stderr)

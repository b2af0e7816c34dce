"""Run one command and fail when its peak RSS is over a bound.

Usage: python3 .github/peak_rss.py LIMIT_MB LABEL -- CMD [ARG...]

Prints ``LABEL: N MB peak RSS`` and exits 1 when the command peaked over
LIMIT_MB; a command that fails raises.  Give each command its own
process: RUSAGE_CHILDREN reports the largest child so far, not the last.
"""

import resource
import subprocess
import sys

if len(sys.argv) < 5 or sys.argv[3] != "--":
    sys.exit(__doc__)
limit, label, command = float(sys.argv[1]), sys.argv[2], sys.argv[4:]
subprocess.run(command, check=True)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{label}: {mb:.0f} MB peak RSS")
sys.exit(mb > limit)

"""Run a command as the child of this small process; print its exit code and peak RSS.

    python tests/peak_rss.py COMMAND [ARG ...]

prints ``<exit code> <peak RSS in KiB>``, the RSS from the child's
``ru_maxrss`` as ``os.wait4`` reports it. Linux carries a process's RSS
high-water mark over into a child that it spawns by vfork and exec, so a
child spawned from a large process (a test run, say) reads at least that
process's mark. This launcher imports nothing large, so its child's figure
is the child's own.
"""

import os
import sys

pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)

"""Set-up cost in a fresh interpreter: import, config parse, make_context.

Run with the checkout's ``src`` on PYTHONPATH and the configuration text
on stdin; prints one JSON object with the three stage times in seconds.
The benchmark times the whole process from outside as ``setup_s``, which
adds interpreter start-up, the part of set-up a CLI user also pays.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import kickedchain  # noqa: E402

t1 = time.perf_counter()
cfg = kickedchain.parse_config(sys.stdin.read())
t2 = time.perf_counter()
kickedchain.make_context(cfg.chain)
t3 = time.perf_counter()

src = os.path.realpath(sys.argv[1])
if not os.path.realpath(kickedchain.__file__).startswith(src + os.sep):
    sys.exit(f"imported kickedchain from {kickedchain.__file__}, not from {src}")
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "make_context_s": t3 - t2}))

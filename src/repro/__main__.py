"""``python -m repro`` entry point."""

import gc
import sys

from repro.cli import main

code = main()
# The command is done and the process exits: freeze the heap, so that
# interpreter shutdown frees it without first searching it for cycles
# (about a tenth of a warm ``repro suite``). Everything the command
# writes is flushed and closed by now.
gc.freeze()
sys.exit(code)

"""One set-up sample: import the compiler and build a default engine.

Run as ``python setup_probe.py {model|grape}`` with the sources on
``PYTHONPATH``; the parent times it from spawn to exit.
"""

import sys

from repro.compiler import BatchCompiler

BatchCompiler(backend=sys.argv[1])

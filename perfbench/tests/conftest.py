# Puts the benchmark's own modules (run, spans, check, workloads) on the path.
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

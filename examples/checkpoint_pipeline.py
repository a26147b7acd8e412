"""Operational example: trace files, checkpoints, and resuming.

A monitoring pipeline rarely processes one neat in-memory stream: traces
arrive in files, processes restart, and partial state must survive.  This
example exercises the operational surface of the library:

1. write a trace file and load it back (repro.streams.io);
2. run the §III-D long-tail check before enabling Long-tail Replacement;
3. process half the trace, checkpoint the LTC to bytes, "restart",
   restore, and finish — verifying the result is identical to an
   uninterrupted run (repro.core.serialize).

Run:  python examples/checkpoint_pipeline.py
"""

import os
import tempfile

from repro import LTC, LTCConfig
from repro.analysis.distribution import is_long_tailed, sample_frequencies
from repro.core.serialize import from_bytes, to_bytes
from repro.streams import load_items, dump_items
from repro.streams.datasets import caida_like

# --- 1. a trace file ------------------------------------------------------
source = caida_like(num_events=40_000, num_distinct=9_000, num_periods=40)
trace_path = os.path.join(tempfile.mkdtemp(), "packets.txt")
dump_items(source, trace_path)
stream = load_items(trace_path, num_periods=40, name="packets")
print(f"loaded {stream.stats} from {trace_path}")

# --- 2. distribution check ------------------------------------------------
report = is_long_tailed(sample_frequencies(stream.events, sample_size=20_000))
print(f"distribution check: {report}")
policy = "longtail" if report.long_tailed else "one"

# --- 3. checkpoint / restore ----------------------------------------------
config = LTCConfig(
    num_buckets=170,
    bucket_width=8,
    alpha=1.0,
    beta=1.0,
    items_per_period=stream.period_length,
    replacement_policy=policy,
)

periods = list(stream.iter_periods())
half = len(periods) // 2

# First process: half the trace, then checkpoint.
first = LTC(config)
for period in periods[:half]:
    for item in period:
        first.insert(item)
    first.end_period()
blob = to_bytes(first)
print(f"\ncheckpoint after {half} periods: {len(blob)} bytes")

# "Restart": restore and continue with the rest of the trace.
resumed = from_bytes(blob)
for period in periods[half:]:
    for item in period:
        resumed.insert(item)
    resumed.end_period()
resumed.finalize()

# Control: one uninterrupted run.
control = LTC(config)
stream.run(control)

top_resumed = [(r.item, r.significance) for r in resumed.top_k(10)]
top_control = [(r.item, r.significance) for r in control.top_k(10)]
assert top_resumed == top_control, "resume must be lossless"
print("resumed run matches the uninterrupted run exactly — top-5:")
for item, sig in top_resumed[:5]:
    print(f"  item {item:>10}  significance {sig:g}")

os.remove(trace_path)

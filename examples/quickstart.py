"""Quickstart: find the top-k significant items of a stream with LTC.

Run:  python examples/quickstart.py
"""

from repro import LTC, GroundTruth, MemoryBudget, kb
from repro.streams import network_like

# 1. A workload: a network-trace-like stream of integer item ids divided
#    into periods (see repro.streams.datasets for the generators).
stream = network_like(num_events=50_000, num_distinct=15_000, num_periods=50)
print(stream.stats)

# 2. An LTC sized for a 20KB budget.  significance = alpha·frequency +
#    beta·persistency; here both dimensions count equally.
ltc = LTC.from_memory(
    MemoryBudget(kb(20)),
    items_per_period=stream.period_length,
    alpha=1.0,
    beta=1.0,
)
# Equivalent explicit construction:
#   ltc = LTC(LTCConfig(num_buckets=213, bucket_width=8, alpha=1.0,
#                       beta=1.0, items_per_period=stream.period_length))

# 3. Feed the stream.  stream.run() hands each period to insert_many()
#    (identical, cell for cell, to calling insert() per arrival), calls
#    end_period() at boundaries and finalize() at the end; you can also
#    drive those methods yourself.
stream.run(ltc)

# 4. Query.
print(f"\nstructure: {ltc.total_cells} cells, load {ltc.load_factor():.0%}")
print("\ntop-10 significant items (est. vs exact):")
truth = GroundTruth(stream)
for report in ltc.top_k(10):
    real = truth.significance(report.item, 1.0, 1.0)
    print(
        f"  item {report.item:>10}  "
        f"sig={report.significance:7.0f} (real {real:7.0f})  "
        f"f={report.frequency:6.0f}  p={report.persistency:4.0f}"
    )

# 5. Point queries.
item = ltc.top_k(1)[0].item
f, p = ltc.estimate(item)
print(f"\npoint query for {item}: frequency≈{f}, persistency≈{p}")

"""Which end-to-end metric, on which workload, each per-layer metric should move.

Written down before any optimisation is measured, so that a later change
can show its saving where it claimed it: a change to a layer should move
the metrics listed for it and leave the other workloads alone. Keys with
a trailing ``*`` cover every per-layer metric with that prefix.
"""

CAMPAIGN_RATE = "ops_per_s on campaign"

MOVES = {
    "kernels.multiply.*": "ops_per_s on campaign; a little on geodesic, and "
                          "a little on comparison (the 1-variable order-2 "
                          "jets of ode_residual)",
    "jets.compose.*": CAMPAIGN_RATE,
    "jets.seed.calls.*": CAMPAIGN_RATE,
    "jets.derivative_tensors.self_s": CAMPAIGN_RATE,
    "jets.get_context.builds": "setup_s on every workload",
    "metric.F.jet_*": CAMPAIGN_RATE,
    "metric.F.float_*": "ops_per_s on geodesic (the speed at every node)",
    "zoo.chord_root.*": "op_ms_p90 on campaign and geodesic (ellipse metrics)",
    "geometry.assemble.calls.o2": "ops_per_s on geodesic",
    "geometry.assemble.self_s.o2": "ops_per_s on geodesic",
    "geometry.assemble.calls.o4": CAMPAIGN_RATE,
    "geometry.assemble.self_s.o4": CAMPAIGN_RATE,
    "geometry.assemble_per_state": CAMPAIGN_RATE,
    "projective.*": CAMPAIGN_RATE,
    "ode.*": "ops_per_s on comparison most; op_ms_p90 on geodesic "
             "(Funk and ellipse rim legs)",
    "geodesic.hausdorff_to_chord.self_s": "ops_per_s and op_ms_p90 on geodesic",
    "geodesic.sample.self_s": "ops_per_s on geodesic",
    "geodesic.nodes": "none: shows whether a change altered the traces",
    "geodesic.status.*": "none: shows whether a change altered the traces",
    "comparison.*": "ops_per_s on comparison",
    "sampling.state_pairs.self_s": CAMPAIGN_RATE,
    "sampling.pmap.*": CAMPAIGN_RATE,
    "errors.*": "none: failed operations by class, all workloads",
    "fail_frac": "none: failed / attempted operations, all workloads",
    "trace.*": "none: wall time, loop time and overhead of the traced pass",
    "layer.*": "the layer's share of the traced wall time, all workloads",
}


def moves(name):
    """The entry of MOVES that covers a per-layer metric name."""
    if name in MOVES:
        return MOVES[name]
    for key, value in MOVES.items():
        if key.endswith("*") and name.startswith(key[:-1]):
            return value
    raise KeyError(name)

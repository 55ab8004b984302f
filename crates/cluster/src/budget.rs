//! Fleet-level power-budget arbitration.
//!
//! [`FleetConfig::power_cap_w`](crate::fleet::FleetConfig::power_cap_w)
//! caps each node *locally*; real facility power management caps the
//! *sum* of node draws. This module is the serial heart of the
//! tick-synchronous three-phase fleet pass: every node first proposes
//! its 60 s tick from its own deterministic `(seed, node_id)` stream
//! (sharded, in parallel), then [`arbitrate`] folds the proposals
//! against the remaining per-tick budget in node-id order (serial), and
//! the decisions are applied back to samples (serial, straight into the
//! run's buffer). Because the fold consumes proposals in a fixed order
//! and touches no RNG, the outcome is bitwise-identical for any thread
//! count and shard split.
//!
//! Idle floors are **unconditional**: a powered-on node draws its idle
//! floor whether or not the arbiter admits its proposal (a facility
//! cannot shed below idle without powering nodes off). The arbiter
//! therefore budgets the *increment* of each proposal over the node's
//! floor; a tick whose floors alone exceed the budget is infeasible and
//! is counted rather than hidden.

/// How the arbiter resolves a proposal that does not fit the tick's
/// remaining budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Drop the node to its idle floor for the tick; the proposal is
    /// consumed (that node-minute of work is lost).
    #[default]
    ShedToFloor,
    /// Emit the idle floor for the tick but keep the proposal queued:
    /// the node retries it next tick, pushing the episode's remaining
    /// ticks later in wall time. Proposals still queued when the node's
    /// horizon ends are dropped and counted as truncated.
    Defer,
}

impl BudgetPolicy {
    /// Human-readable policy name (CLI/report spelling).
    pub fn name(self) -> &'static str {
        match self {
            BudgetPolicy::ShedToFloor => "shed-to-floor",
            BudgetPolicy::Defer => "defer",
        }
    }
}

/// One node's proposed tick stream plus its unconditional floor draw.
/// Proposals are stored as two parallel columns, so an unbudgeted fleet
/// copies `watts` into its sample output as it is.
/// The node emits exactly `watts.len()` samples (its horizon); under
/// [`BudgetPolicy::Defer`] the cursor into the stream can lag behind
/// the tick index.
#[derive(Debug, Clone)]
pub struct NodeStream {
    /// The node's idle-floor draw, W (drawn even when shed).
    pub floor_w: f64,
    /// Composed node power per proposed tick if admitted, W (idle
    /// floor plus duty-cycled payload power, already clamped at the
    /// facility cap).
    pub watts: Vec<f64>,
    /// Telemetry state index per proposed tick (0 = idle floor, `1..`
    /// = job classes in mix order). Same length as `watts`.
    pub states: Vec<u16>,
}

/// Per-tick outcome for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Emit proposal `i` of the node's stream.
    Admit(u32),
    /// Emit the idle floor (shed, deferred, or stream exhausted).
    Floor,
}

/// The deterministic result of one arbitration pass.
#[derive(Debug, Clone)]
pub struct Arbitration {
    /// Per-node, per-tick decisions; `decisions[n].len()` equals node
    /// `n`'s horizon.
    pub decisions: Vec<Vec<Decision>>,
    /// Fleet draw per synchronized tick, W (floors plus admitted
    /// increments; infeasible ticks report their true over-budget sum).
    pub tick_draw_w: Vec<f64>,
    /// Per-state count of proposals shed to the floor
    /// ([`BudgetPolicy::ShedToFloor`] only).
    pub shed_ticks: Vec<u64>,
    /// Per-state count of tick-denials that deferred a proposal; one
    /// proposal can be deferred on several consecutive ticks
    /// ([`BudgetPolicy::Defer`] only).
    pub deferred_ticks: Vec<u64>,
    /// Proposals still queued when their node's horizon ended (defer
    /// pushed them past the end of the run).
    pub truncated_proposals: u64,
    /// Ticks whose unconditional floor draws alone exceeded the budget
    /// (no proposal can be admitted; the budget is infeasible there).
    pub infeasible_floor_ticks: u64,
}

/// Serial, node-id-ordered fold admitting proposals against a per-tick
/// fleet budget. Earlier node ids get first claim on each tick's
/// headroom — a fixed priority that keeps the fold deterministic.
///
/// `n_states` sizes the per-state counters (index 0 = floor, then the
/// job classes); every `NodeStream::states` entry must be below it.
pub fn arbitrate(
    nodes: &[NodeStream],
    budget_w: f64,
    policy: BudgetPolicy,
    n_states: usize,
) -> Arbitration {
    assert!(
        budget_w.is_finite() && budget_w > 0.0,
        "budget must be a positive wattage, got {budget_w}"
    );
    // Validate the streams once up front; the per-tick fold can then
    // index the counters unchecked (a deferred proposal would
    // otherwise be re-validated on every denial tick).
    for node in nodes {
        assert_eq!(
            node.watts.len(),
            node.states.len(),
            "proposal columns out of sync"
        );
        for (&s, &w) in node.states.iter().zip(&node.watts) {
            assert!(
                (s as usize) < n_states,
                "proposal state {s} out of range ({n_states} states)"
            );
            // A proposal below the floor would make tick_draw_w (which
            // books floor_w + max(0, increment)) disagree with the
            // emitted sample; the floor is the minimum draw by
            // definition.
            assert!(
                w >= node.floor_w,
                "proposal {w} W below the node floor {} W",
                node.floor_w
            );
        }
    }
    let max_ticks = nodes.iter().map(|n| n.watts.len()).max().unwrap_or(0);
    let mut cursor = vec![0usize; nodes.len()];
    let mut decisions: Vec<Vec<Decision>> = nodes
        .iter()
        .map(|n| Vec::with_capacity(n.watts.len()))
        .collect();
    let mut tick_draw_w = Vec::with_capacity(max_ticks);
    let mut shed_ticks = vec![0u64; n_states];
    let mut deferred_ticks = vec![0u64; n_states];
    let mut infeasible_floor_ticks = 0u64;
    for t in 0..max_ticks {
        // Floors first: they are drawn no matter what gets admitted.
        let base: f64 = nodes
            .iter()
            .filter(|n| t < n.watts.len())
            .map(|n| n.floor_w)
            .sum();
        let mut remaining = budget_w - base;
        if remaining < 0.0 {
            infeasible_floor_ticks += 1;
            remaining = 0.0;
        }
        let mut draw = base;
        for (i, node) in nodes.iter().enumerate() {
            if t >= node.watts.len() {
                continue;
            }
            match node.watts.get(cursor[i]) {
                // Defer pushed the whole remaining stream past the
                // cursor; the node idles out its horizon.
                None => decisions[i].push(Decision::Floor),
                Some(&w) => {
                    let inc = (w - node.floor_w).max(0.0);
                    if inc <= remaining {
                        remaining -= inc;
                        draw += inc;
                        // fs2-lint: allow(checked-cast) -- cursor indexes a per-node tick window (u32 samples); hot arbitrate loop
                        decisions[i].push(Decision::Admit(cursor[i] as u32));
                        cursor[i] += 1;
                    } else {
                        let state = node.states[cursor[i]] as usize;
                        decisions[i].push(Decision::Floor);
                        match policy {
                            BudgetPolicy::ShedToFloor => {
                                shed_ticks[state] += 1;
                                cursor[i] += 1;
                            }
                            BudgetPolicy::Defer => {
                                deferred_ticks[state] += 1;
                            }
                        }
                    }
                }
            }
        }
        tick_draw_w.push(draw);
    }
    let truncated_proposals = nodes
        .iter()
        .zip(&cursor)
        .map(|(n, &c)| (n.watts.len() - c) as u64)
        .sum();
    Arbitration {
        decisions,
        tick_draw_w,
        shed_ticks,
        deferred_ticks,
        truncated_proposals,
        infeasible_floor_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(floor_w: f64, watts: &[f64]) -> NodeStream {
        NodeStream {
            floor_w,
            watts: watts.to_vec(),
            states: vec![1; watts.len()],
        }
    }

    /// Replays decisions into emitted per-tick node draws.
    fn emit(nodes: &[NodeStream], arb: &Arbitration) -> Vec<Vec<f64>> {
        nodes
            .iter()
            .zip(&arb.decisions)
            .map(|(n, ds)| {
                ds.iter()
                    .map(|d| match d {
                        Decision::Admit(i) => n.watts[*i as usize],
                        Decision::Floor => n.floor_w,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn earlier_node_ids_claim_headroom_first() {
        let nodes = vec![node(1.0, &[3.0]), node(1.0, &[3.0])];
        let arb = arbitrate(&nodes, 4.0, BudgetPolicy::ShedToFloor, 2);
        // Base 2.0, headroom 2.0: node 0's +2.0 fits, node 1's does not.
        assert_eq!(arb.decisions[0], vec![Decision::Admit(0)]);
        assert_eq!(arb.decisions[1], vec![Decision::Floor]);
        assert_eq!(arb.tick_draw_w, vec![4.0]);
        assert_eq!(arb.shed_ticks, vec![0, 1]);
        assert_eq!(arb.infeasible_floor_ticks, 0);
    }

    #[test]
    fn shed_consumes_the_proposal_defer_retries_it() {
        // Node 0 has a one-tick horizon; node 1 proposes a hot tick
        // that only fits once node 0 has dropped off the fleet.
        let nodes = vec![node(1.0, &[4.0]), node(1.0, &[3.5, 1.5])];
        let shed = arbitrate(&nodes, 5.0, BudgetPolicy::ShedToFloor, 2);
        // Tick 0: base 2, node 0 admits +3, node 1's +2.5 is shed.
        // Tick 1: node 0 inactive; node 1's next proposal (+0.5) fits.
        assert_eq!(shed.decisions[1], vec![Decision::Floor, Decision::Admit(1)]);
        assert_eq!(shed.shed_ticks[1], 1);
        assert_eq!(shed.truncated_proposals, 0);

        let defer = arbitrate(&nodes, 5.0, BudgetPolicy::Defer, 2);
        // Same tick 0, but the 3.5 W proposal is retried and admitted
        // on tick 1 (base is 1.0 once node 0's horizon ends).
        assert_eq!(
            defer.decisions[1],
            vec![Decision::Floor, Decision::Admit(0)]
        );
        assert_eq!(defer.deferred_ticks[1], 1);
        // The 1.5 W proposal never ran: pushed past the horizon.
        assert_eq!(defer.truncated_proposals, 1);
    }

    #[test]
    fn fleet_draw_never_exceeds_a_feasible_budget() {
        let nodes: Vec<NodeStream> = (0..7)
            .map(|i| {
                let w: Vec<f64> = (0..40)
                    .map(|t| 2.0 + ((i * 13 + t * 7) % 17) as f64)
                    .collect();
                node(2.0, &w)
            })
            .collect();
        for policy in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
            let arb = arbitrate(&nodes, 40.0, policy, 2);
            assert_eq!(arb.infeasible_floor_ticks, 0);
            for (t, &draw) in arb.tick_draw_w.iter().enumerate() {
                assert!(draw <= 40.0 + 1e-12, "tick {t}: draw {draw} over budget");
            }
            // The recorded per-tick draw matches the emitted samples.
            let emitted = emit(&nodes, &arb);
            for (t, &draw) in arb.tick_draw_w.iter().enumerate() {
                let sum: f64 = emitted.iter().filter_map(|s| s.get(t)).sum();
                assert!((sum - draw).abs() < 1e-9, "tick {t}: {sum} != {draw}");
            }
        }
    }

    #[test]
    fn floor_only_proposals_are_always_admitted() {
        // A proposal at the floor has zero increment and always fits,
        // even with zero headroom.
        let nodes = vec![node(3.0, &[3.0, 3.0])];
        let arb = arbitrate(&nodes, 3.0, BudgetPolicy::ShedToFloor, 2);
        assert_eq!(
            arb.decisions[0],
            vec![Decision::Admit(0), Decision::Admit(1)]
        );
        assert_eq!(arb.shed_ticks, vec![0, 0]);
    }

    #[test]
    fn infeasible_floors_are_counted_not_hidden() {
        let nodes = vec![node(3.0, &[5.0]), node(3.0, &[5.0])];
        let arb = arbitrate(&nodes, 5.0, BudgetPolicy::ShedToFloor, 2);
        assert_eq!(arb.infeasible_floor_ticks, 1);
        // Floors alone already bust the budget; the honest sum is kept.
        assert_eq!(arb.tick_draw_w, vec![6.0]);
        assert_eq!(arb.decisions[0], vec![Decision::Floor]);
        assert_eq!(arb.decisions[1], vec![Decision::Floor]);
    }

    #[test]
    fn heterogeneous_horizons_keep_output_lengths() {
        let nodes = vec![node(1.0, &[2.0]), node(1.0, &[2.0, 2.0, 2.0])];
        let arb = arbitrate(&nodes, 100.0, BudgetPolicy::Defer, 2);
        assert_eq!(arb.decisions[0].len(), 1);
        assert_eq!(arb.decisions[1].len(), 3);
        assert_eq!(arb.tick_draw_w.len(), 3);
        // A wide-open budget admits everything in order.
        assert!(arb
            .decisions
            .iter()
            .flatten()
            .all(|d| matches!(d, Decision::Admit(_))));
    }

    #[test]
    fn arbitration_is_deterministic() {
        let nodes: Vec<NodeStream> = (0..5)
            .map(|i| node(1.0, &[2.0 + i as f64, 4.0, 1.0 + i as f64]))
            .collect();
        let a = arbitrate(&nodes, 9.0, BudgetPolicy::Defer, 2);
        let b = arbitrate(&nodes, 9.0, BudgetPolicy::Defer, 2);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.tick_draw_w, b.tick_draw_w);
    }
}

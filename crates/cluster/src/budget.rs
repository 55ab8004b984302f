//! Fleet-level power-budget arbitration.
//!
//! [`FleetConfig::power_cap_w`](crate::fleet::FleetConfig::power_cap_w)
//! caps each node *locally*; real facility power management caps the
//! *sum* of node draws. This module is the serial heart of the
//! tick-synchronous fleet pass: every node first proposes its 60 s
//! ticks from its own deterministic `(seed, node_id)` stream (sharded,
//! in parallel), then [`arbitrate`] folds the proposals against the
//! remaining per-tick budget in node-id order (serial) and writes each
//! tick's outcome — the admitted proposal or the node's floor —
//! straight into the run's sample buffer. Because the fold consumes
//! proposals in a fixed order and touches no RNG, the outcome is
//! bitwise-identical for any thread count and shard split.
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

    /// The policy `shed` (or its name, `shed-to-floor`) or `defer`
    /// names, in any letter case.
    pub fn from_name(name: &str) -> Option<BudgetPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "shed" | "shed-to-floor" => Some(BudgetPolicy::ShedToFloor),
            "defer" => Some(BudgetPolicy::Defer),
            _ => None,
        }
    }
}

/// One node's proposals as the arbiter reads them: its unconditional
/// floor draw plus two parallel columns borrowed from the shard
/// buffers. The node emits exactly `watts.len()` samples (its
/// horizon); under [`BudgetPolicy::Defer`] the cursor into the
/// proposals can lag behind the tick index.
#[derive(Debug, Clone)]
pub struct NodeStream<'a> {
    /// The node's idle-floor draw, W (drawn even when shed).
    pub floor_w: f64,
    /// Composed node power per proposed tick if admitted, W (idle
    /// floor plus duty-cycled payload power, already clamped at the
    /// facility cap).
    pub watts: &'a [f64],
    /// Telemetry state index per proposed tick (0 = idle floor, `1..`
    /// = job classes in mix order). Same length as `watts`.
    pub states: &'a [u16],
}

/// The deterministic result of one arbitration pass.
#[derive(Debug, Clone)]
pub struct Arbitration {
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
/// Every tick's outcome is written straight into `out`, which holds
/// the emitted samples node after node (node `n` owns the next
/// `nodes[n].watts.len()` slots): the admitted proposal, or the node's
/// floor when its proposal is shed, deferred or already exhausted.
///
/// `n_states` sizes the per-state counters (index 0 = floor, then the
/// job classes); every `NodeStream::states` entry must be below it.
pub fn arbitrate(
    nodes: &[NodeStream<'_>],
    budget_w: f64,
    policy: BudgetPolicy,
    n_states: usize,
    out: &mut [f64],
) -> Arbitration {
    assert!(
        budget_w.is_finite() && budget_w > 0.0,
        "budget must be a positive wattage, got {budget_w}"
    );
    // Validate the streams once up front; the per-tick fold can then
    // index the counters unchecked (a deferred proposal would
    // otherwise be re-validated on every denial tick). The same pass
    // finds where each node's samples start in `out`.
    let mut offsets = Vec::with_capacity(nodes.len());
    let mut total = 0usize;
    for node in nodes {
        assert_eq!(
            node.watts.len(),
            node.states.len(),
            "proposal columns out of sync"
        );
        for (&s, &w) in node.states.iter().zip(node.watts) {
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
        offsets.push(total);
        total += node.watts.len();
    }
    assert_eq!(out.len(), total, "output buffer must hold every horizon");
    let max_ticks = nodes.iter().map(|n| n.watts.len()).max().unwrap_or(0);
    let mut cursor = vec![0usize; nodes.len()];
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
            out[offsets[i] + t] = match node.watts.get(cursor[i]) {
                // Defer pushed the whole remaining stream past the
                // cursor; the node idles out its horizon.
                None => node.floor_w,
                Some(&w) => {
                    let inc = (w - node.floor_w).max(0.0);
                    if inc <= remaining {
                        remaining -= inc;
                        draw += inc;
                        cursor[i] += 1;
                        w
                    } else {
                        let state = node.states[cursor[i]] as usize;
                        match policy {
                            BudgetPolicy::ShedToFloor => {
                                shed_ticks[state] += 1;
                                cursor[i] += 1;
                            }
                            BudgetPolicy::Defer => {
                                deferred_ticks[state] += 1;
                            }
                        }
                        node.floor_w
                    }
                }
            };
        }
        tick_draw_w.push(draw);
    }
    let truncated_proposals = nodes
        .iter()
        .zip(&cursor)
        .map(|(n, &c)| (n.watts.len() - c) as u64)
        .sum();
    Arbitration {
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

    /// Arbitrates `(floor_w, proposals)` nodes, every proposal labelled
    /// state 1, and returns the counters plus each node's emitted
    /// samples cut out of the written buffer. The buffer starts as NaN,
    /// so a slot the fold never writes fails every comparison.
    fn arbitrate_nodes(
        nodes: &[(f64, &[f64])],
        budget_w: f64,
        policy: BudgetPolicy,
    ) -> (Arbitration, Vec<Vec<f64>>) {
        let ones = vec![1u16; nodes.iter().map(|n| n.1.len()).max().unwrap_or(0)];
        let streams: Vec<NodeStream> = nodes
            .iter()
            .map(|&(floor_w, watts)| NodeStream {
                floor_w,
                watts,
                states: &ones[..watts.len()],
            })
            .collect();
        let mut out = vec![f64::NAN; nodes.iter().map(|n| n.1.len()).sum()];
        let arb = arbitrate(&streams, budget_w, policy, 2, &mut out);
        let mut rest = out.as_slice();
        let emitted = nodes
            .iter()
            .map(|n| {
                let (node, tail) = rest.split_at(n.1.len());
                rest = tail;
                node.to_vec()
            })
            .collect();
        (arb, emitted)
    }

    #[test]
    fn earlier_node_ids_claim_headroom_first() {
        let nodes: [(f64, &[f64]); 2] = [(1.0, &[3.0]), (1.0, &[3.0])];
        let (arb, out) = arbitrate_nodes(&nodes, 4.0, BudgetPolicy::ShedToFloor);
        // Base 2.0, headroom 2.0: node 0's +2.0 fits, node 1's does not.
        assert_eq!(out[0], vec![3.0]);
        assert_eq!(out[1], vec![1.0]);
        assert_eq!(arb.tick_draw_w, vec![4.0]);
        assert_eq!(arb.shed_ticks, vec![0, 1]);
        assert_eq!(arb.infeasible_floor_ticks, 0);
    }

    #[test]
    fn shed_consumes_the_proposal_defer_retries_it() {
        // Node 0 has a one-tick horizon; node 1 proposes a hot tick
        // that only fits once node 0 has dropped off the fleet.
        let nodes: [(f64, &[f64]); 2] = [(1.0, &[4.0]), (1.0, &[3.5, 1.5])];
        let (shed, out) = arbitrate_nodes(&nodes, 5.0, BudgetPolicy::ShedToFloor);
        // Tick 0: base 2, node 0 admits +3, node 1's +2.5 is shed.
        // Tick 1: node 0 inactive; node 1's next proposal (+0.5) fits.
        assert_eq!(out[1], vec![1.0, 1.5]);
        assert_eq!(shed.shed_ticks[1], 1);
        assert_eq!(shed.truncated_proposals, 0);

        let (defer, out) = arbitrate_nodes(&nodes, 5.0, BudgetPolicy::Defer);
        // Same tick 0, but the 3.5 W proposal is retried and admitted
        // on tick 1 (base is 1.0 once node 0's horizon ends).
        assert_eq!(out[1], vec![1.0, 3.5]);
        assert_eq!(defer.deferred_ticks[1], 1);
        // The 1.5 W proposal never ran: pushed past the horizon.
        assert_eq!(defer.truncated_proposals, 1);
    }

    #[test]
    fn fleet_draw_never_exceeds_a_feasible_budget() {
        let watts: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                (0..40)
                    .map(|t| 2.0 + ((i * 13 + t * 7) % 17) as f64)
                    .collect()
            })
            .collect();
        let nodes: Vec<(f64, &[f64])> = watts.iter().map(|w| (2.0, w.as_slice())).collect();
        for policy in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
            let (arb, emitted) = arbitrate_nodes(&nodes, 40.0, policy);
            assert_eq!(arb.infeasible_floor_ticks, 0);
            for (t, &draw) in arb.tick_draw_w.iter().enumerate() {
                assert!(draw <= 40.0 + 1e-12, "tick {t}: draw {draw} over budget");
            }
            // The recorded per-tick draw matches the emitted samples.
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
        let nodes: [(f64, &[f64]); 1] = [(3.0, &[3.0, 3.0])];
        let (arb, out) = arbitrate_nodes(&nodes, 3.0, BudgetPolicy::ShedToFloor);
        assert_eq!(out[0], vec![3.0, 3.0]);
        assert_eq!(arb.shed_ticks, vec![0, 0]);
    }

    #[test]
    fn infeasible_floors_are_counted_not_hidden() {
        let nodes: [(f64, &[f64]); 2] = [(3.0, &[5.0]), (3.0, &[5.0])];
        let (arb, out) = arbitrate_nodes(&nodes, 5.0, BudgetPolicy::ShedToFloor);
        assert_eq!(arb.infeasible_floor_ticks, 1);
        // Floors alone already bust the budget; the honest sum is kept.
        assert_eq!(arb.tick_draw_w, vec![6.0]);
        assert_eq!(out[0], vec![3.0]);
        assert_eq!(out[1], vec![3.0]);
    }

    #[test]
    fn heterogeneous_horizons_keep_output_lengths() {
        let nodes: [(f64, &[f64]); 2] = [(1.0, &[2.0]), (1.0, &[2.0, 2.0, 2.0])];
        let (arb, out) = arbitrate_nodes(&nodes, 100.0, BudgetPolicy::Defer);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].len(), 3);
        assert_eq!(arb.tick_draw_w.len(), 3);
        // A wide-open budget admits everything in order.
        assert_eq!(out, vec![vec![2.0], vec![2.0, 2.0, 2.0]]);
        // Distinct proposals pin each node's offset in the buffer: node
        // 1's ticks follow node 0's single sample, in tick order.
        let nodes: [(f64, &[f64]); 2] = [(1.0, &[2.0]), (1.0, &[3.0, 4.0, 5.0])];
        let streams = nodes.map(|(floor_w, watts)| NodeStream {
            floor_w,
            watts,
            states: &[1, 1, 1][..watts.len()],
        });
        let mut buf = vec![f64::NAN; 4];
        arbitrate(&streams, 100.0, BudgetPolicy::Defer, 2, &mut buf);
        assert_eq!(buf, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn arbitration_is_deterministic() {
        let watts: Vec<[f64; 3]> = (0..5)
            .map(|i| [2.0 + i as f64, 4.0, 1.0 + i as f64])
            .collect();
        let nodes: Vec<(f64, &[f64])> = watts.iter().map(|w| (1.0, &w[..])).collect();
        let (a, out_a) = arbitrate_nodes(&nodes, 9.0, BudgetPolicy::Defer);
        let (b, out_b) = arbitrate_nodes(&nodes, 9.0, BudgetPolicy::Defer);
        assert_eq!(out_a, out_b);
        assert_eq!(a.tick_draw_w, b.tick_draw_w);
    }

    #[test]
    fn policy_and_mode_names_parse_in_any_letter_case() {
        for p in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
            assert_eq!(BudgetPolicy::from_name(p.name()), Some(p));
        }
        let shed = Some(BudgetPolicy::ShedToFloor);
        assert_eq!(BudgetPolicy::from_name("shed"), shed);
        assert_eq!(BudgetPolicy::from_name("Shed-To-Floor"), shed);
        assert_eq!(BudgetPolicy::from_name("auction"), None);
        use crate::TemporalMode;
        assert_eq!(TemporalMode::from_name("iid"), Some(TemporalMode::Iid));
        let episodes = Some(TemporalMode::Episodes);
        assert_eq!(TemporalMode::from_name("EPISODES"), episodes);
        assert_eq!(TemporalMode::from_name("markov"), None);
    }
}

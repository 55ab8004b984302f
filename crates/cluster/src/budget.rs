//! Fleet-level power-budget arbitration.
//!
//! [`FleetConfig::power_cap_w`](crate::fleet::FleetConfig::power_cap_w)
//! caps each node *locally*; real facility power management caps the
//! *sum* of node draws. This module is the serial heart of the
//! tick-synchronous fleet pass: every node first proposes its 60 s
//! ticks from its own deterministic `(seed, node_id)` stream (sharded,
//! in parallel), then [`arbitrate`] folds the proposals against the
//! remaining per-tick budget in node-id order (serial) and writes each
//! tick's outcome — the admitted proposal or the node's floor — over
//! the proposals, in place. Because the fold consumes proposals in a
//! fixed order and touches no RNG, the outcome is bitwise-identical
//! for any thread count and shard split.
//!
//! The fold is node-major: a node's outcome at a tick depends only on
//! lower ids at that tick and its own earlier ticks, so walking node
//! by node against one headroom and one draw value per tick does each
//! tick's float operations in the tick-by-tick order.
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

/// One node's run of the merged proposal buffer as the arbiter reads
/// it: its unconditional floor draw and its horizon. Nodes own
/// consecutive runs in node order (node `n` owns the `ticks` slots
/// after those of nodes `0..n`), and each emits exactly `ticks`
/// samples into its own run; under [`BudgetPolicy::Defer`] the cursor
/// into its proposals can lag behind the tick index.
#[derive(Debug, Clone, Copy)]
pub struct NodeStream {
    /// The node's idle-floor draw, W (drawn even when shed).
    pub floor_w: f64,
    /// The node's horizon: the proposals it makes and the samples it
    /// emits.
    pub ticks: usize,
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
/// `watts` holds each node's proposals (node power per tick if
/// admitted, W, already clamped at the facility cap) node after node,
/// and `states` their labels. Each tick's outcome overwrites its
/// proposal: the proposal if admitted, else the node's floor. A node's
/// proposals are copied aside and checked first, since under defer one
/// is read after its slot is written.
///
/// `n_states` sizes the per-state counters (index 0 = floor, then the
/// job classes); every label must be below it.
pub fn arbitrate(
    nodes: &[NodeStream],
    budget_w: f64,
    policy: BudgetPolicy,
    n_states: usize,
    watts: &mut [f64],
    states: &[u16],
) -> Arbitration {
    assert!(
        budget_w.is_finite() && budget_w > 0.0,
        "budget must be a positive wattage, got {budget_w}"
    );
    assert_eq!(watts.len(), states.len(), "proposal columns out of sync");
    let total: usize = nodes.iter().map(|n| n.ticks).sum();
    assert_eq!(watts.len(), total, "output buffer must hold every horizon");
    // Floors first: they are drawn no matter what gets admitted. Summed
    // per tick in node order, they are the additions a tick-by-tick sum
    // over the active nodes makes, in the same order.
    let max_ticks = nodes.iter().map(|n| n.ticks).max().unwrap_or(0);
    let mut tick_draw_w = vec![0.0; max_ticks];
    for node in nodes {
        for draw in &mut tick_draw_w[..node.ticks] {
            *draw += node.floor_w;
        }
    }
    let mut infeasible_floor_ticks = 0u64;
    let mut headroom = Vec::with_capacity(max_ticks);
    for &base in &tick_draw_w {
        infeasible_floor_ticks += u64::from(base > budget_w);
        headroom.push((budget_w - base).max(0.0));
    }
    let mut shed_ticks = vec![0u64; n_states];
    let mut deferred_ticks = vec![0u64; n_states];
    let mut truncated_proposals = 0u64;
    let mut proposals = Vec::with_capacity(max_ticks);
    let mut at = 0;
    for node in nodes {
        let run = at..at + node.ticks;
        at = run.end;
        let labels = &states[run.clone()];
        let samples = &mut watts[run];
        proposals.clear();
        proposals.extend_from_slice(samples);
        // Check once up front, not on every denial tick.
        for (&s, &w) in labels.iter().zip(&proposals) {
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
        let mut cursor = 0usize;
        let ticks = samples.iter_mut().zip(&mut headroom).zip(&mut tick_draw_w);
        for ((sample, remaining), draw) in ticks {
            *sample = match proposals.get(cursor) {
                // Defer pushed the whole remaining stream past the
                // cursor; the node idles out its horizon.
                None => node.floor_w,
                Some(&w) => {
                    let inc = (w - node.floor_w).max(0.0);
                    if inc <= *remaining {
                        *remaining -= inc;
                        *draw += inc;
                        cursor += 1;
                        w
                    } else {
                        let state = labels[cursor] as usize;
                        match policy {
                            BudgetPolicy::ShedToFloor => {
                                shed_ticks[state] += 1;
                                cursor += 1;
                            }
                            BudgetPolicy::Defer => deferred_ticks[state] += 1,
                        }
                        node.floor_w
                    }
                }
            };
        }
        truncated_proposals += (node.ticks - cursor) as u64;
    }
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
    /// samples cut out of the rewritten buffer.
    fn arbitrate_nodes(
        nodes: &[(f64, &[f64])],
        budget_w: f64,
        policy: BudgetPolicy,
    ) -> (Arbitration, Vec<Vec<f64>>) {
        let streams: Vec<NodeStream> = nodes
            .iter()
            .map(|&(floor_w, watts)| NodeStream {
                floor_w,
                ticks: watts.len(),
            })
            .collect();
        let mut buf: Vec<f64> = nodes.iter().flat_map(|n| n.1).copied().collect();
        let ones = vec![1u16; buf.len()];
        let arb = arbitrate(&streams, budget_w, policy, 2, &mut buf, &ones);
        let mut rest = buf.as_slice();
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
        // Distinct proposals pin each node's run of the buffer: node 1's
        // ticks follow node 0's single sample, in tick order.
        let nodes: [(f64, &[f64]); 2] = [(1.0, &[2.0]), (1.0, &[3.0, 4.0, 5.0])];
        let (_, out) = arbitrate_nodes(&nodes, 100.0, BudgetPolicy::Defer);
        assert_eq!(out, vec![vec![2.0], vec![3.0, 4.0, 5.0]]);
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

    /// One node's proposal columns as the tick-major oracle reads them.
    struct Proposals<'a> {
        floor_w: f64,
        watts: &'a [f64],
        states: &'a [u16],
    }

    /// The tick-major fold [`arbitrate`] replaced, kept as the oracle
    /// its node-major fold must match bit for bit: every tick reads one
    /// proposal from each node stream, in node-id order, and writes one
    /// sample into each node's range of a separate `out` buffer.
    fn tick_major(
        nodes: &[Proposals<'_>],
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

    /// Random fleets: 1–40 nodes with unequal horizons of 1–300 ticks,
    /// floors drawn per node, proposals at and above the floor, and
    /// budgets from below the floor sum (infeasible) to above the sum
    /// of the node peaks. Both policies must match the tick-major
    /// oracle bit for bit in the samples, the per-tick draws and every
    /// counter.
    #[test]
    fn node_major_fold_matches_the_tick_major_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB0D6_E7A2);
        let (mut infeasible, mut shed, mut truncated) = (0, 0, 0);
        for case in 0..300 {
            let n_states = rng.gen_range(2usize..=6);
            let nodes: Vec<(f64, Vec<f64>, Vec<u16>)> = (0..rng.gen_range(1usize..=40))
                .map(|_| {
                    let floor_w = rng.gen_range(40.0..120.0);
                    let ticks = rng.gen_range(1usize..=300);
                    let mut watts = Vec::with_capacity(ticks);
                    let mut states = Vec::with_capacity(ticks);
                    for _ in 0..ticks {
                        // A quarter of the proposals sit at the floor.
                        if rng.gen_bool(0.25) {
                            watts.push(floor_w);
                            states.push(0);
                        } else {
                            watts.push(floor_w + rng.gen_range(0.0..250.0));
                            states.push(rng.gen_range(1..n_states as u32) as u16);
                        }
                    }
                    (floor_w, watts, states)
                })
                .collect();
            let floor_sum: f64 = nodes.iter().map(|n| n.0).sum();
            let peak_sum: f64 = nodes
                .iter()
                .map(|n| n.1.iter().copied().fold(0.0, f64::max))
                .sum();
            let budget_w = rng.gen_range(0.6 * floor_sum..1.1 * peak_sum);
            let oracle_nodes: Vec<Proposals> = nodes
                .iter()
                .map(|(floor_w, watts, states)| Proposals {
                    floor_w: *floor_w,
                    watts,
                    states,
                })
                .collect();
            let streams: Vec<NodeStream> = nodes
                .iter()
                .map(|n| NodeStream {
                    floor_w: n.0,
                    ticks: n.1.len(),
                })
                .collect();
            let states: Vec<u16> = nodes.iter().flat_map(|n| &n.2).copied().collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for policy in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
                let mut want_out = vec![f64::NAN; states.len()];
                let want = tick_major(&oracle_nodes, budget_w, policy, n_states, &mut want_out);
                let mut got_out: Vec<f64> = nodes.iter().flat_map(|n| &n.1).copied().collect();
                let got = arbitrate(&streams, budget_w, policy, n_states, &mut got_out, &states);
                let label = format!("case {case}, {}", policy.name());
                assert_eq!(bits(&got_out), bits(&want_out), "{label}: samples");
                assert_eq!(
                    bits(&got.tick_draw_w),
                    bits(&want.tick_draw_w),
                    "{label}: tick_draw_w"
                );
                assert_eq!(got.shed_ticks, want.shed_ticks, "{label}: shed");
                assert_eq!(got.deferred_ticks, want.deferred_ticks, "{label}: deferred");
                assert_eq!(
                    got.truncated_proposals, want.truncated_proposals,
                    "{label}: truncated"
                );
                assert_eq!(
                    got.infeasible_floor_ticks, want.infeasible_floor_ticks,
                    "{label}: infeasible"
                );
                infeasible += usize::from(got.infeasible_floor_ticks > 0);
                shed += usize::from(got.shed_ticks.iter().sum::<u64>() > 0);
                truncated += usize::from(got.truncated_proposals > 0);
            }
        }
        // The budgets reach every regime: infeasible floors, binding
        // budgets, and defers pushed past a horizon.
        assert!(infeasible > 0 && shed > 0 && truncated > 0);
    }

    /// One node with floor 1 W proposing `watts`, labelled state 1 of 2,
    /// arbitrated into its own buffer.
    fn arbitrate_one(watts: &[f64], states: &[u16], budget_w: f64) {
        let node = [NodeStream {
            floor_w: 1.0,
            ticks: watts.len(),
        }];
        let mut buf = watts.to_vec();
        arbitrate(
            &node,
            budget_w,
            BudgetPolicy::ShedToFloor,
            2,
            &mut buf,
            states,
        );
    }

    #[test]
    #[should_panic(expected = "budget must be a positive wattage, got 0")]
    fn a_zero_budget_is_rejected() {
        arbitrate_one(&[2.0], &[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "budget must be a positive wattage, got NaN")]
    fn a_nan_budget_is_rejected() {
        arbitrate_one(&[2.0], &[1], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "proposal columns out of sync")]
    fn label_and_proposal_columns_must_match() {
        arbitrate_one(&[2.0, 2.0], &[1], 10.0);
    }

    #[test]
    #[should_panic(expected = "proposal state 2 out of range (2 states)")]
    fn a_state_label_must_be_below_n_states() {
        arbitrate_one(&[2.0, 2.0], &[1, 2], 10.0);
    }

    #[test]
    #[should_panic(expected = "proposal 0.5 W below the node floor 1 W")]
    fn a_proposal_must_not_fall_below_its_floor() {
        arbitrate_one(&[2.0, 0.5], &[1, 1], 10.0);
    }

    #[test]
    #[should_panic(expected = "output buffer must hold every horizon")]
    fn the_buffer_must_match_the_horizons() {
        let nodes = [NodeStream {
            floor_w: 1.0,
            ticks: 3,
        }];
        let mut buf = vec![2.0; 2];
        arbitrate(&nodes, 10.0, BudgetPolicy::Defer, 2, &mut buf, &[1, 1]);
    }
}

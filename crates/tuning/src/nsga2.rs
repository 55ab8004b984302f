//! The NSGA-II driver.
//!
//! Matches the paper's §IV-E parameterization: "In the first generation,
//! an initial population of 40 is randomly initialized and evaluated. The
//! following 20 generations are created by binary tournament select,
//! recombination, and mutation (35 % probability) from the individuals of
//! the previous generation."

use crate::problem::{EvaluatedIndividual, Problem};
use crate::sort::{crowding_distance, fast_nondominated_sort};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// NSGA-II parameters (CLI: `--individuals`, `--generations`,
/// `--nsga2-m`).
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size µ (paper: 40).
    pub individuals: usize,
    /// Number of offspring generations (paper: 20).
    pub generations: u32,
    /// Per-individual mutation probability m (paper: 0.35).
    pub mutation_prob: f64,
    /// Crossover probability per offspring (uniform crossover).
    pub crossover_prob: f64,
    /// RNG seed — runs are fully reproducible.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Nsga2Config {
        Nsga2Config {
            individuals: 40,
            generations: 20,
            mutation_prob: 0.35,
            crossover_prob: 0.9,
            seed: 0x5EED_F1DE,
        }
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct Nsga2Result {
    /// Every evaluation performed, in order (Fig. 11's scatter).
    pub history: Vec<EvaluatedIndividual>,
    /// The final population's first non-dominated front.
    pub front: Vec<EvaluatedIndividual>,
    /// Number of evaluations answered from the duplicate cache.
    pub cache_hits: u32,
}

impl Nsga2Result {
    /// The individual maximizing objective `obj` on the final front — the
    /// paper selects the highest-power individual as ω_opt.
    pub fn best_by(&self, obj: usize) -> Option<&EvaluatedIndividual> {
        self.front
            .iter()
            .max_by(|a, b| a.objectives[obj].total_cmp(&b.objectives[obj]))
    }
}

struct Member {
    genes: Vec<u32>,
    objectives: Vec<f64>,
}

/// The optimizer.
pub struct Nsga2 {
    config: Nsga2Config,
}

impl Nsga2 {
    pub fn new(config: Nsga2Config) -> Nsga2 {
        assert!(config.individuals >= 2, "population must be at least 2");
        assert!((0.0..=1.0).contains(&config.mutation_prob));
        assert!((0.0..=1.0).contains(&config.crossover_prob));
        Nsga2 { config }
    }

    /// Runs the optimization, calling `on_eval` after every evaluation
    /// (the runner uses this hook to emit the Fig. 7 trace).
    pub fn run_with_callback<P: Problem>(
        &self,
        problem: &mut P,
        mut on_eval: impl FnMut(&EvaluatedIndividual),
    ) -> Nsga2Result {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let bounds = problem.bounds();
        assert_eq!(bounds.len(), problem.n_genes());
        let mut history: Vec<EvaluatedIndividual> = Vec::new();
        let mut cache: HashMap<Vec<u32>, Vec<f64>> = HashMap::new();
        let mut cache_hits = 0u32;
        let mut eval_index = 0u32;

        let eval = |genes: Vec<u32>,
                    generation: u32,
                    problem: &mut P,
                    history: &mut Vec<EvaluatedIndividual>,
                    cache: &mut HashMap<Vec<u32>, Vec<f64>>,
                    cache_hits: &mut u32,
                    eval_index: &mut u32,
                    on_eval: &mut dyn FnMut(&EvaluatedIndividual)|
         -> Member {
            let objectives = if let Some(cached) = cache.get(&genes) {
                *cache_hits += 1;
                cached.clone()
            } else {
                let obj = problem.evaluate(&genes);
                assert_eq!(obj.len(), problem.n_objectives());
                cache.insert(genes.clone(), obj.clone());
                obj
            };
            let ind = EvaluatedIndividual {
                genes: genes.clone(),
                objectives: objectives.clone(),
                generation,
                eval_index: *eval_index,
            };
            *eval_index += 1;
            on_eval(&ind);
            history.push(ind);
            Member { genes, objectives }
        };

        // Initial population: uniform random within bounds.
        let mut pop: Vec<Member> = Vec::with_capacity(self.config.individuals);
        for _ in 0..self.config.individuals {
            let mut genes: Vec<u32> = bounds
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                .collect();
            problem.repair(&mut genes);
            pop.push(eval(
                genes,
                0,
                problem,
                &mut history,
                &mut cache,
                &mut cache_hits,
                &mut eval_index,
                &mut on_eval,
            ));
        }

        for generation in 1..=self.config.generations {
            // Rank the current population for tournament selection.
            let objs: Vec<Vec<f64>> = pop.iter().map(|m| m.objectives.clone()).collect();
            let fronts = fast_nondominated_sort(&objs);
            let mut rank = vec![0usize; pop.len()];
            let mut crowd = vec![0.0f64; pop.len()];
            for (r, front) in fronts.iter().enumerate() {
                let d = crowding_distance(&objs, front);
                for (i, &idx) in front.iter().enumerate() {
                    rank[idx] = r;
                    crowd[idx] = d[i];
                }
            }

            let tournament = |rng: &mut StdRng| -> usize {
                let a = rng.gen_range(0..pop.len());
                let b = rng.gen_range(0..pop.len());
                // Crowded-comparison operator: lower rank wins; ties break
                // on larger crowding distance.
                if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                    a
                } else {
                    b
                }
            };

            // Offspring via tournament + uniform crossover + mutation.
            let mut offspring: Vec<Vec<u32>> = Vec::with_capacity(self.config.individuals);
            while offspring.len() < self.config.individuals {
                let p1 = tournament(&mut rng);
                let p2 = tournament(&mut rng);
                let mut child = pop[p1].genes.clone();
                if rng.gen_bool(self.config.crossover_prob) {
                    for (g, other) in child.iter_mut().zip(&pop[p2].genes) {
                        if rng.gen_bool(0.5) {
                            *g = *other;
                        }
                    }
                }
                if rng.gen_bool(self.config.mutation_prob) {
                    // Mutate one random gene: small step or resample.
                    let gi = rng.gen_range(0..child.len());
                    let (lo, hi) = bounds[gi];
                    child[gi] = if rng.gen_bool(0.5) {
                        // ±1 step, clamped.
                        let delta: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
                        let v = i64::from(child[gi]) + delta;
                        v.clamp(i64::from(lo), i64::from(hi)) as u32
                    } else {
                        rng.gen_range(lo..=hi)
                    };
                }
                problem.repair(&mut child);
                offspring.push(child);
            }

            for child in offspring {
                pop.push(eval(
                    child,
                    generation,
                    problem,
                    &mut history,
                    &mut cache,
                    &mut cache_hits,
                    &mut eval_index,
                    &mut on_eval,
                ));
            }

            // Elitist µ+λ survival: best fronts, crowding-truncated.
            let objs: Vec<Vec<f64>> = pop.iter().map(|m| m.objectives.clone()).collect();
            let fronts = fast_nondominated_sort(&objs);
            let mut keep: Vec<usize> = Vec::with_capacity(self.config.individuals);
            for front in &fronts {
                if keep.len() + front.len() <= self.config.individuals {
                    keep.extend_from_slice(front);
                } else {
                    let d = crowding_distance(&objs, front);
                    let mut by_crowd: Vec<usize> = (0..front.len()).collect();
                    by_crowd.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
                    for &i in by_crowd.iter().take(self.config.individuals - keep.len()) {
                        keep.push(front[i]);
                    }
                    break;
                }
            }
            keep.sort_unstable();
            keep.reverse();
            let mut survivors = Vec::with_capacity(self.config.individuals);
            for i in keep {
                survivors.push(pop.swap_remove(i));
            }
            pop = survivors;
        }

        // Final front from the surviving population.
        let objs: Vec<Vec<f64>> = pop.iter().map(|m| m.objectives.clone()).collect();
        let fronts = fast_nondominated_sort(&objs);
        let front = fronts
            .first()
            .map(|f| {
                f.iter()
                    .map(|&i| EvaluatedIndividual {
                        genes: pop[i].genes.clone(),
                        objectives: pop[i].objectives.clone(),
                        generation: self.config.generations,
                        eval_index: u32::MAX, // survivors, not fresh evals
                    })
                    .collect()
            })
            .unwrap_or_default();

        Nsga2Result {
            history,
            front,
            cache_hits,
        }
    }

    /// Runs without a per-evaluation callback.
    pub fn run<P: Problem>(&self, problem: &mut P) -> Nsga2Result {
        self.run_with_callback(problem, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfns::{DiscreteZdt1, Sch};

    fn config(seed: u64) -> Nsga2Config {
        Nsga2Config {
            individuals: 40,
            generations: 20,
            mutation_prob: 0.35,
            crossover_prob: 0.9,
            seed,
        }
    }

    #[test]
    fn sch_front_converges_to_pareto_set() {
        // SCH: Pareto set is x ∈ [0, 2] (gene 200..=400 after offset).
        let mut p = Sch::new();
        let result = Nsga2::new(config(1)).run(&mut p);
        assert!(!result.front.is_empty());
        for ind in &result.front {
            let x = Sch::gene_to_x(ind.genes[0]);
            assert!(
                (-0.2..=2.2).contains(&x),
                "front member outside Pareto set: x = {x}"
            );
        }
    }

    #[test]
    fn final_front_dominates_initial_population_spread() {
        let mut p = DiscreteZdt1::new(8);
        let result = Nsga2::new(config(2)).run(&mut p);
        // Hypervolume proxy: best f1+f2 sum of the front must beat the
        // best of generation 0.
        let gen0_best = result
            .history
            .iter()
            .filter(|i| i.generation == 0)
            .map(|i| i.objectives.iter().sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        let front_best = result
            .front
            .iter()
            .map(|i| i.objectives.iter().sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            front_best >= gen0_best,
            "no improvement: {front_best} < {gen0_best}"
        );
    }

    #[test]
    fn history_counts_and_generation_tags() {
        let mut p = Sch::new();
        let cfg = config(3);
        let result = Nsga2::new(cfg.clone()).run(&mut p);
        // 40 initial + 20 × 40 offspring evaluations (incl. cache hits).
        assert_eq!(
            result.history.len(),
            cfg.individuals * (cfg.generations as usize + 1)
        );
        assert_eq!(result.history[0].generation, 0);
        assert_eq!(result.history.last().unwrap().generation, cfg.generations);
        // Eval indices are sequential.
        for (i, ind) in result.history.iter().enumerate() {
            assert_eq!(ind.eval_index as usize, i);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let r1 = Nsga2::new(config(7)).run(&mut Sch::new());
        let r2 = Nsga2::new(config(7)).run(&mut Sch::new());
        let h1: Vec<&Vec<u32>> = r1.history.iter().map(|i| &i.genes).collect();
        let h2: Vec<&Vec<u32>> = r2.history.iter().map(|i| &i.genes).collect();
        assert_eq!(h1, h2);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = Nsga2::new(config(7)).run(&mut Sch::new());
        let r2 = Nsga2::new(config(8)).run(&mut Sch::new());
        let h1: Vec<&Vec<u32>> = r1.history.iter().map(|i| &i.genes).collect();
        let h2: Vec<&Vec<u32>> = r2.history.iter().map(|i| &i.genes).collect();
        assert_ne!(h1, h2);
    }

    #[test]
    fn duplicate_cache_fires() {
        // Tiny search space forces duplicates.
        struct Tiny;
        impl Problem for Tiny {
            fn n_genes(&self) -> usize {
                1
            }
            fn n_objectives(&self) -> usize {
                2
            }
            fn bounds(&self) -> Vec<(u32, u32)> {
                vec![(0, 3)]
            }
            fn evaluate(&mut self, genes: &[u32]) -> Vec<f64> {
                vec![f64::from(genes[0]), -f64::from(genes[0])]
            }
        }
        let result = Nsga2::new(config(4)).run(&mut Tiny);
        assert!(result.cache_hits > 0);
    }

    #[test]
    fn callback_sees_every_evaluation() {
        let mut p = Sch::new();
        let mut seen = 0u32;
        let result = Nsga2::new(config(5)).run_with_callback(&mut p, |_ind| {
            seen += 1;
        });
        assert_eq!(seen as usize, result.history.len());
    }

    #[test]
    fn best_by_objective_selection() {
        let mut p = Sch::new();
        let result = Nsga2::new(config(6)).run(&mut p);
        let best0 = result.best_by(0).unwrap();
        for ind in &result.front {
            assert!(best0.objectives[0] >= ind.objectives[0]);
        }
    }

    #[test]
    fn repair_is_applied() {
        struct NonZero;
        impl Problem for NonZero {
            fn n_genes(&self) -> usize {
                2
            }
            fn n_objectives(&self) -> usize {
                2
            }
            fn bounds(&self) -> Vec<(u32, u32)> {
                vec![(0, 5), (0, 5)]
            }
            fn evaluate(&mut self, genes: &[u32]) -> Vec<f64> {
                assert!(
                    genes.iter().any(|&g| g > 0),
                    "repair failed: all-zero genome evaluated"
                );
                vec![f64::from(genes[0]), f64::from(genes[1])]
            }
            fn repair(&self, genes: &mut [u32]) {
                if genes.iter().all(|&g| g == 0) {
                    genes[0] = 1;
                }
            }
        }
        // Must not panic.
        let _ = Nsga2::new(config(9)).run(&mut NonZero);
    }
}

//! Multi-filter dataflow deployments of the estimator benchmark kernels:
//! real applications exercising the DAG runtime beyond NBIA's chain.
//!
//! * [`eclat`] — frequent-itemset mining as a two-stage candidate/mine
//!   pipeline: the candidate filter emits one task per frequent single
//!   item, replicated mine filters search that item's projected
//!   equivalence class, and the merged output equals the monolithic
//!   [`mine`](anthill_kernels::eclat::mine).
//! * [`pricing`] — Black-Scholes option pricing as a fan-out/fan-in
//!   diamond: a splitter round-robins contracts across two functionally
//!   identical pricing branches and a merger collects them, so results
//!   are independent of how the round-robin cursor split the batch.

use std::sync::Arc;

use anthill::buffer::{BufferId, DataBuffer};
use anthill::graph::DataflowGraph;
use anthill::local::{
    Emitter, ExecMode, LocalFilter, LocalReport, LocalTask, Pipeline, WorkerSpec,
};
use anthill::policy::PolicyKind;
use anthill::weights::WeightProvider;
use anthill_estimator::TaskParams;
use anthill_hetsim::{DeviceKind, TaskShape};
use anthill_simkit::SimDuration;

/// A neutral task shape for the flow tasks: equal CPU/GPU service time, no
/// transfer bytes, so scheduling splits stay interleaving-insensitive.
fn flow_shape(micros: u64) -> TaskShape {
    TaskShape {
        cpu: SimDuration::from_micros(micros),
        gpu_kernel: SimDuration::from_micros(micros),
        bytes_in: 0,
        bytes_out: 0,
    }
}

fn flow_buffer(id: u64, task: u64, micros: u64) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[micros as f64]),
        shape: flow_shape(micros),
        level: 0,
        task,
    }
}

fn cpu_native(n: usize) -> Vec<WorkerSpec> {
    vec![
        WorkerSpec {
            kind: DeviceKind::Cpu,
            mode: ExecMode::Native,
        };
        n
    ]
}

/// Eclat frequent-itemset mining as a two-stage replicated pipeline.
pub mod eclat {
    use super::*;
    use anthill_kernels::eclat::{mine, FrequentItemset, Transactions};

    /// The source payload: the whole transaction database and the support
    /// threshold.
    struct MiningJob {
        db: Transactions,
        min_support: u32,
    }

    /// One frequent single item's search subtree: its projected database
    /// (rows containing the item, restricted to larger items).
    struct Subtree {
        item: u32,
        support: u32,
        min_support: u32,
        projected: Transactions,
    }

    /// Stage 0 — candidate generation: count single-item supports and emit
    /// one task per frequent item, carrying its projection.
    struct CandidateFilter;

    impl LocalFilter for CandidateFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let job = task
                .payload
                .downcast::<MiningJob>()
                .expect("eclat mining job payload");
            let mut max_item = 0u32;
            for row in &job.db.rows {
                for &it in row {
                    max_item = max_item.max(it);
                }
            }
            let mut counts = vec![0u32; max_item as usize + 1];
            for row in &job.db.rows {
                for &it in row {
                    counts[it as usize] += 1;
                }
            }
            for item in 0..=max_item {
                let support = counts[item as usize];
                if support < job.min_support {
                    continue;
                }
                // Project: rows containing `item`, restricted to larger
                // items — the item's depth-first equivalence class.
                let projected = Transactions {
                    rows: job
                        .db
                        .rows
                        .iter()
                        .filter(|row| row.contains(&item))
                        .map(|row| row.iter().copied().filter(|&it| it > item).collect())
                        .collect(),
                };
                out.forward(LocalTask::new(
                    flow_buffer(1 + u64::from(item), u64::from(item), 50),
                    Subtree {
                        item,
                        support,
                        min_support: job.min_support,
                        projected,
                    },
                ));
            }
        }
    }

    /// Stage 1 — subtree mining: mine the projection and prefix every
    /// result with the subtree's item.
    struct MineFilter;

    impl LocalFilter for MineFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let sub = task
                .payload
                .downcast::<Subtree>()
                .expect("eclat subtree payload");
            let mut found = vec![FrequentItemset {
                items: vec![sub.item],
                support: sub.support,
            }];
            if !sub.projected.rows.is_empty() {
                for f in mine(&sub.projected, sub.min_support) {
                    let mut items = Vec::with_capacity(f.items.len() + 1);
                    items.push(sub.item);
                    items.extend(f.items);
                    found.push(FrequentItemset {
                        items,
                        support: f.support,
                    });
                }
            }
            out.forward(LocalTask::new(task.buffer, found));
        }
    }

    /// Run the two-stage eclat pipeline on the native threaded runtime
    /// with `replicas` mine workers. The merged result equals
    /// [`mine`]`(db, min_support)` exactly.
    pub fn run_pipeline<W: WeightProvider + Sync>(
        db: &Transactions,
        min_support: u32,
        policy: PolicyKind,
        replicas: usize,
        weights: &W,
    ) -> (Vec<FrequentItemset>, LocalReport) {
        let mut pipeline =
            Pipeline::new(policy).with_graph(DataflowGraph::pipeline(&["candidate", "mine"]));
        pipeline.add_stage(Arc::new(CandidateFilter), cpu_native(1));
        pipeline.add_stage(Arc::new(MineFilter), cpu_native(replicas.max(1)));
        let sources = vec![LocalTask::new(
            flow_buffer(0, 0, 50),
            MiningJob {
                db: db.clone(),
                min_support,
            },
        )];
        let (outputs, report) = pipeline.run(sources, weights);
        let mut merged: Vec<FrequentItemset> = outputs
            .into_iter()
            .flat_map(|t| {
                *t.payload
                    .downcast::<Vec<FrequentItemset>>()
                    .expect("eclat subtree result payload")
            })
            .collect();
        merged.sort_by(|a, b| {
            a.items
                .len()
                .cmp(&b.items.len())
                .then(a.items.cmp(&b.items))
        });
        (merged, report)
    }
}

/// Black-Scholes pricing as a fan-out/fan-in diamond.
pub mod pricing {
    use super::*;
    use anthill_kernels::black_scholes::{price, Option_, Priced};

    /// A contract on its way through the diamond.
    struct Contract {
        index: u64,
        option: Option_,
    }

    /// A priced contract leaving a branch.
    struct PricedContract {
        index: u64,
        priced: Priced,
    }

    /// Source: forward each contract; the graph's round-robin out-edges
    /// split the stream across the two branches.
    struct SplitFilter;

    impl LocalFilter for SplitFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            out.forward(task);
        }
    }

    /// Branch: price the contract (both branches run this same filter).
    struct PriceFilter;

    impl LocalFilter for PriceFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let c = task
                .payload
                .downcast::<Contract>()
                .expect("pricing contract payload");
            out.forward(LocalTask::new(
                task.buffer,
                PricedContract {
                    index: c.index,
                    priced: price(c.option),
                },
            ));
        }
    }

    /// Sink: pass priced contracts through to the run output.
    struct MergeFilter;

    impl LocalFilter for MergeFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            out.forward(task);
        }
    }

    /// Run a batch of contracts through the split → price×2 → merge
    /// diamond. Returns `(contract index, prices)` sorted by index — equal
    /// to pricing the batch directly, however the round-robin split fell.
    pub fn run_diamond<W: WeightProvider + Sync>(
        options: &[Option_],
        policy: PolicyKind,
        weights: &W,
    ) -> (Vec<(u64, Priced)>, LocalReport) {
        let mut pipeline = Pipeline::new(policy).with_graph(DataflowGraph::diamond(
            "split", "price_a", "price_b", "merge",
        ));
        pipeline.add_stage(Arc::new(SplitFilter), cpu_native(1));
        pipeline.add_stage(Arc::new(PriceFilter), cpu_native(1));
        pipeline.add_stage(Arc::new(PriceFilter), cpu_native(1));
        pipeline.add_stage(Arc::new(MergeFilter), cpu_native(1));
        let sources: Vec<LocalTask> = options
            .iter()
            .enumerate()
            .map(|(i, &option)| {
                LocalTask::new(
                    flow_buffer(i as u64, i as u64, 50),
                    Contract {
                        index: i as u64,
                        option,
                    },
                )
            })
            .collect();
        let (outputs, report) = pipeline.run(sources, weights);
        let mut priced: Vec<(u64, Priced)> = outputs
            .into_iter()
            .map(|t| {
                let p = t
                    .payload
                    .downcast::<PricedContract>()
                    .expect("priced contract payload");
                (p.index, p.priced)
            })
            .collect();
        priced.sort_by_key(|&(i, _)| i);
        (priced, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill::weights::OracleWeights;
    use anthill_hetsim::GpuParams;
    use anthill_kernels::black_scholes::{price_batch, Option_};
    use anthill_kernels::eclat::{mine, Transactions};

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), true)
    }

    fn classic_db() -> Transactions {
        Transactions {
            rows: vec![
                vec![1, 2, 5],
                vec![2, 4],
                vec![2, 3],
                vec![1, 2, 4],
                vec![1, 3],
                vec![2, 3],
                vec![1, 3],
                vec![1, 2, 3, 5],
                vec![1, 2, 3],
            ],
        }
    }

    #[test]
    fn eclat_pipeline_equals_monolithic_mining() {
        let db = classic_db();
        for min_support in [1, 2, 4] {
            let reference = mine(&db, min_support);
            let (merged, report) =
                eclat::run_pipeline(&db, min_support, PolicyKind::DdFcfs, 2, &oracle());
            assert_eq!(merged, reference, "min_support {min_support}");
            // One delivery over the candidate→mine edge per frequent
            // single item.
            let singles = reference.iter().filter(|f| f.items.len() == 1).count() as u64;
            assert_eq!(report.edge_delivered[&0], singles);
            assert_eq!(
                report.total(),
                1 + singles,
                "the job task plus one per subtree"
            );
        }
    }

    #[test]
    fn eclat_pipeline_handles_an_empty_database() {
        let (merged, report) = eclat::run_pipeline(
            &Transactions::default(),
            1,
            PolicyKind::DdFcfs,
            2,
            &oracle(),
        );
        assert!(merged.is_empty());
        assert_eq!(report.edge_delivered[&0], 0);
    }

    #[test]
    fn pricing_diamond_equals_the_direct_batch() {
        let options: Vec<Option_> = (0..40)
            .map(|i| Option_ {
                spot: 80.0 + f64::from(i),
                strike: 100.0,
                expiry: 0.5 + f64::from(i % 4) * 0.25,
                rate: 0.02,
                volatility: 0.3,
            })
            .collect();
        let reference = price_batch(&options);
        let (priced, report) = pricing::run_diamond(&options, PolicyKind::DdFcfs, &oracle());
        assert_eq!(priced.len(), 40);
        for (i, (idx, p)) in priced.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*p, reference[i], "contract {i}");
        }
        // The deterministic round-robin cursor splits the batch exactly
        // in half, and the branch edges conserve into the merge edges.
        assert_eq!(report.edge_delivered[&0], 20);
        assert_eq!(report.edge_delivered[&1], 20);
        assert_eq!(report.edge_delivered[&2], 20);
        assert_eq!(report.edge_delivered[&3], 20);
        assert_eq!(
            report.total(),
            120,
            "split + one branch + merge per contract"
        );
    }
}

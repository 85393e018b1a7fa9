//! The Virtual Microscope — the other flagship filter-stream application
//! of the Anthill/DataCutter lineage (the paper's reference \[8\]): serve
//! interactive viewport queries over an enormous digitized slide.
//!
//! Dataflow (three filters, a real multi-stage pipeline on the native
//! runtime):
//!
//! ```text
//! read/decompress ──► zoom (downsample to the requested level) ──► composite
//! ```
//!
//! Each viewport query fans out into one task per covered slide tile; the
//! compositor reassembles the viewport once every tile has arrived. The
//! zoom filter is the compute-heavy, GPU-friendly stage (pixel-parallel
//! box filtering), so the demand-driven schedulers have real
//! heterogeneous choices to make.

use std::collections::HashMap;
use std::sync::Arc;

use anthill::buffer::{BufferId, DataBuffer};
use anthill::local::{Emitter, LocalFilter, LocalTask, Pipeline, WorkerSpec};
use anthill::policy::PolicyKind;
use anthill::weights::WeightProvider;
use anthill_estimator::TaskParams;
use anthill_hetsim::NbiaCostModel;
use anthill_kernels::color::Rgb8;
use anthill_kernels::pyramid::downsample;
use anthill_kernels::tiles::{TileClass, TileGenerator};
use std::sync::Mutex;

/// The slide: a `cols × rows` grid of square tiles, synthesized on demand
/// (the "disk" of the read filter).
#[derive(Debug, Clone)]
pub struct Slide {
    /// Tiles per row.
    pub cols: u32,
    /// Tile rows.
    pub rows: u32,
    /// Full-resolution tile side (a power of two).
    pub tile_side: u32,
    /// Synthesis seed.
    pub seed: u64,
}

impl Slide {
    /// Deterministic tissue class of a tile (a coarse tissue map).
    pub(crate) fn class_at(&self, col: u32, row: u32) -> TileClass {
        // Blobby regions: hash the coarse coordinates.
        let h = (u64::from(col / 3))
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(u64::from(row / 3).wrapping_mul(0x85EB_CA6B))
            .wrapping_add(self.seed);
        TileClass::ALL[(h % 3) as usize]
    }

    /// Synthesize ("read and decompress") one full-resolution tile.
    pub(crate) fn read_tile(&self, col: u32, row: u32) -> Vec<Rgb8> {
        assert!(col < self.cols && row < self.rows, "tile out of slide");
        let tile_seed = self.seed ^ (u64::from(row) << 32 | u64::from(col));
        TileGenerator::new(tile_seed).generate(self.class_at(col, row), self.tile_side)
    }
}

/// A viewport query: a rectangle of tiles at a zoom level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Query id.
    pub id: u64,
    /// First tile column.
    pub col0: u32,
    /// First tile row.
    pub row0: u32,
    /// Width in tiles.
    pub width: u32,
    /// Height in tiles.
    pub height: u32,
    /// Zoom-out level: each level halves the tile side (0 = full res).
    pub zoom: u8,
}

impl Query {
    /// Tiles covered by the viewport.
    pub fn tile_count(&self) -> u32 {
        self.width * self.height
    }
}

/// A rendered viewport.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The query this answers.
    pub query: Query,
    /// Output side of each composited tile.
    pub tile_side: u32,
    /// Mean luminance of the composited viewport (a content checksum).
    pub mean_luma: f64,
}

struct TileTask {
    query: Query,
    pixels: Vec<Rgb8>,
    side: u32,
}

/// Stage 1: read/decompress the tile named by the task.
struct ReadFilter {
    slide: Slide,
}

impl LocalFilter for ReadFilter {
    fn handle(&self, _d: anthill_hetsim::DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        let t = task.payload.downcast::<TileRef>().expect("tile ref");
        let pixels = self.slide.read_tile(t.col, t.row);
        out.forward(LocalTask::new(
            task.buffer,
            TileTask {
                query: t.query,
                side: self.slide.tile_side,
                pixels,
            },
        ));
    }
}

struct TileRef {
    query: Query,
    col: u32,
    row: u32,
}

/// Stage 2: box-filter the tile down to the requested zoom level (the
/// pixel-parallel, accelerator-friendly stage).
struct ZoomFilter;

impl LocalFilter for ZoomFilter {
    fn handle(&self, _d: anthill_hetsim::DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        let mut t = task.payload.downcast::<TileTask>().expect("tile task");
        for _ in 0..t.query.zoom {
            if t.side < 2 {
                break;
            }
            t.pixels = downsample(&t.pixels, t.side);
            t.side /= 2;
        }
        out.forward(LocalTask::new(task.buffer, *t));
    }
}

/// Stage 3: composite tiles into viewports; emit each viewport once all
/// its tiles arrived. Shared state behind a mutex — filters are
/// replicated, state must be thread-safe (paper §3: Anthill handles
/// "state partitioning among transparent copies").
struct CompositeFilter {
    pending: Mutex<HashMap<u64, (u32, f64)>>, // query id -> (tiles left, luma sum)
}

impl LocalFilter for CompositeFilter {
    fn handle(&self, _d: anthill_hetsim::DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        let t = task.payload.downcast::<TileTask>().expect("tile task");
        let luma: f64 = t
            .pixels
            .iter()
            .map(|p| 0.299 * f64::from(p.r) + 0.587 * f64::from(p.g) + 0.114 * f64::from(p.b))
            .sum::<f64>()
            / t.pixels.len().max(1) as f64;
        let done = {
            let mut pending = self.pending.lock().unwrap();
            let entry = pending
                .entry(t.query.id)
                .or_insert((t.query.tile_count(), 0.0));
            entry.0 -= 1;
            entry.1 += luma;
            if entry.0 == 0 {
                let (_, sum) = pending.remove(&t.query.id).expect("entry exists");
                Some(sum / f64::from(t.query.tile_count()))
            } else {
                None
            }
        };
        if let Some(mean_luma) = done {
            out.forward(LocalTask::new(
                task.buffer,
                Rendered {
                    query: t.query,
                    tile_side: t.side,
                    mean_luma,
                },
            ));
        }
    }
}

/// Run a batch of viewport queries through the three-filter pipeline.
/// Returns one [`Rendered`] per query (sorted by id) plus the runtime
/// report.
pub fn run_queries<W: WeightProvider + Sync>(
    slide: &Slide,
    queries: &[Query],
    policy: PolicyKind,
    workers_per_stage: Vec<Vec<WorkerSpec>>,
    weights: &W,
) -> (Vec<Rendered>, anthill::local::LocalReport) {
    assert_eq!(workers_per_stage.len(), 3, "three filters");
    let cost = NbiaCostModel::paper_calibrated();
    let mut pipeline = Pipeline::new(policy);
    let mut stages = workers_per_stage.into_iter();
    pipeline.add_stage(
        Arc::new(ReadFilter {
            slide: slide.clone(),
        }),
        stages.next().expect("stage 1"),
    );
    pipeline.add_stage(Arc::new(ZoomFilter), stages.next().expect("stage 2"));
    pipeline.add_stage(
        Arc::new(CompositeFilter {
            pending: Mutex::new(HashMap::new()),
        }),
        stages.next().expect("stage 3"),
    );

    let mut sources = Vec::new();
    let mut next_id = 0u64;
    for q in queries {
        for row in q.row0..q.row0 + q.height {
            for col in q.col0..q.col0 + q.width {
                assert!(col < slide.cols && row < slide.rows, "query off-slide");
                let id = next_id;
                next_id += 1;
                sources.push(LocalTask::new(
                    DataBuffer {
                        id: BufferId(id),
                        params: TaskParams::nums(&[f64::from(slide.tile_side)]),
                        shape: cost.tile(slide.tile_side),
                        level: q.zoom,
                        task: q.id,
                    },
                    TileRef {
                        query: *q,
                        col,
                        row,
                    },
                ));
            }
        }
    }

    let (out, report) = pipeline.run(sources, weights);
    let mut rendered: Vec<Rendered> = out
        .into_iter()
        .map(|t| *t.payload.downcast::<Rendered>().expect("rendered viewport"))
        .collect();
    rendered.sort_by_key(|r| r.query.id);
    (rendered, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill::local::ExecMode;
    use anthill::weights::OracleWeights;
    use anthill_hetsim::{DeviceKind, GpuParams};

    fn slide() -> Slide {
        Slide {
            cols: 8,
            rows: 8,
            tile_side: 64,
            seed: 99,
        }
    }

    fn cpu_stage(n: usize) -> Vec<WorkerSpec> {
        vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            };
            n
        ]
    }

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), true)
    }

    #[test]
    fn every_query_is_rendered_once() {
        let queries = vec![
            Query {
                id: 0,
                col0: 0,
                row0: 0,
                width: 3,
                height: 2,
                zoom: 1,
            },
            Query {
                id: 1,
                col0: 4,
                row0: 4,
                width: 2,
                height: 2,
                zoom: 2,
            },
        ];
        let (rendered, report) = run_queries(
            &slide(),
            &queries,
            PolicyKind::DdFcfs,
            vec![cpu_stage(2), cpu_stage(2), cpu_stage(1)],
            &oracle(),
        );
        assert_eq!(rendered.len(), 2);
        assert_eq!(rendered[0].query, queries[0]);
        assert_eq!(rendered[1].tile_side, 16); // 64 >> 2
                                               // 6 + 4 tiles, each through 3 stages.
        assert_eq!(report.total(), 30);
    }

    #[test]
    fn zoom_preserves_mean_luminance() {
        // Box filtering must keep the viewport's average brightness
        // (within rounding): render the same viewport at zoom 0 and 3.
        let q = |id, zoom| Query {
            id,
            col0: 1,
            row0: 1,
            width: 2,
            height: 2,
            zoom,
        };
        let (r, _) = run_queries(
            &slide(),
            &[q(0, 0), q(1, 3)],
            PolicyKind::DdFcfs,
            vec![cpu_stage(1), cpu_stage(1), cpu_stage(1)],
            &oracle(),
        );
        let diff = (r[0].mean_luma - r[1].mean_luma).abs();
        assert!(diff < 3.0, "luma drifted {diff}: {r:?}");
    }

    #[test]
    fn rendering_is_deterministic_across_policies() {
        let queries = vec![Query {
            id: 0,
            col0: 0,
            row0: 0,
            width: 4,
            height: 4,
            zoom: 1,
        }];
        let (a, _) = run_queries(
            &slide(),
            &queries,
            PolicyKind::DdFcfs,
            vec![cpu_stage(2), cpu_stage(2), cpu_stage(2)],
            &oracle(),
        );
        let (b, _) = run_queries(
            &slide(),
            &queries,
            PolicyKind::DdWrr,
            vec![cpu_stage(1), cpu_stage(3), cpu_stage(1)],
            &oracle(),
        );
        // Tile lumas accumulate in arrival order, so float associativity
        // allows ulp-level differences across schedules — the *content*
        // must agree.
        assert!(
            (a[0].mean_luma - b[0].mean_luma).abs() < 1e-9,
            "{} vs {}",
            a[0].mean_luma,
            b[0].mean_luma
        );
    }

    #[test]
    fn tissue_map_is_deterministic_and_blobby() {
        let s = slide();
        assert_eq!(s.class_at(0, 0), s.class_at(1, 1));
        let classes: std::collections::HashSet<_> = (0..8)
            .flat_map(|c| (0..8).map(move |r| (c, r)))
            .map(|(c, r)| s.class_at(c, r))
            .collect();
        assert!(classes.len() >= 2, "slide should have varied tissue");
    }

    #[test]
    #[should_panic(expected = "off-slide")]
    fn off_slide_queries_rejected() {
        let _ = run_queries(
            &slide(),
            &[Query {
                id: 0,
                col0: 7,
                row0: 7,
                width: 3,
                height: 1,
                zoom: 0,
            }],
            PolicyKind::DdFcfs,
            vec![cpu_stage(1), cpu_stage(1), cpu_stage(1)],
            &oracle(),
        );
    }
}

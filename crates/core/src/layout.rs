//! Memory-layout planning for offloaded jobs.

use mpsoc_kernels::partition::JobPartition;
use mpsoc_kernels::{CoreSlice, Kernel};
use mpsoc_mem::{Addr, MemoryMap, WORD_BYTES};

use crate::OffloadError;

/// Word offset of the job descriptor from the main-memory base.
const DESC_WORD: u64 = 0;
/// Word offset of the software-barrier counter.
const BARRIER_WORD: u64 = 16;
/// Word offset of a reserved always-zero word (halo zero-fill source).
const ZERO_WORD: u64 = 24;
/// Word offset of the reduction-partials area.
const PARTIALS_WORD: u64 = 32;
/// Word offset of the operand vectors (x, then y).
const DATA_WORD: u64 = 1024;

/// Main-memory placement of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MainLayout {
    pub desc: Addr,
    pub barrier: Addr,
    pub zero: Addr,
    pub partials: Addr,
    pub x: Addr,
    pub y: Addr,
}

impl MainLayout {
    /// Words a job's main-memory region spans (control block + operands):
    /// the allocation unit of the concurrent-session region allocator.
    pub fn region_words(x_words: u64, n: u64) -> u64 {
        DATA_WORD + x_words + n
    }

    /// Plans the placement of a job with `x_words` of `x` operand, `n`
    /// output elements and `partial_slots` reduction partials, starting
    /// `region_word` words into main memory. Concurrent tenants get
    /// disjoint regions, so their control blocks (descriptor, barrier
    /// counter, zero word, reduction partials) and operand vectors never
    /// alias; a blocking offload uses region 0.
    pub fn plan_at(
        map: &MemoryMap,
        region_word: u64,
        x_words: u64,
        n: u64,
        partial_slots: u64,
    ) -> Result<Self, OffloadError> {
        let required = region_word + Self::region_words(x_words, n);
        if required > map.main_words() || PARTIALS_WORD + partial_slots > DATA_WORD {
            return Err(OffloadError::MainMemoryOverflow {
                required,
                capacity: map.main_words(),
            });
        }
        let base = map.main_base().add_words(region_word);
        Ok(MainLayout {
            desc: base.add_words(DESC_WORD),
            barrier: base.add_words(BARRIER_WORD),
            zero: base.add_words(ZERO_WORD),
            partials: base.add_words(PARTIALS_WORD),
            x: base.add_words(DATA_WORD),
            y: base.add_words(DATA_WORD + x_words),
        })
    }
}

/// TCDM placement of one cluster's slice of the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TcdmLayout {
    /// Local word of the x slice (present iff the kernel streams x).
    pub x_word: u64,
    /// Local word of the y slice (always present for map kernels — it is
    /// the output buffer — and absent for reductions that ignore y).
    pub y_word: u64,
    /// Local word of the per-core reduction partials (reduce kernels).
    pub out_word: u64,
    /// Local word of the scalar-argument area.
    pub args_word: u64,
    /// Total words used.
    pub used_words: u64,
}

impl TcdmLayout {
    /// Plans a cluster-local layout for `elems` elements of `kernel` run
    /// by `cores` worker cores.
    pub fn plan(
        kernel: &dyn Kernel,
        elems: u64,
        cores: u64,
        capacity: u64,
    ) -> Result<Self, OffloadError> {
        let uses_x = kernel.uses_x();
        let needs_y_buffer = match kernel.kind() {
            mpsoc_kernels::KernelKind::Map => true,
            mpsoc_kernels::KernelKind::Reduce => kernel.uses_y(),
        };
        let x_words = if uses_x {
            elems * kernel.x_words_per_elem() + 2 * kernel.x_halo()
        } else {
            0
        };
        let y_words = if needs_y_buffer { elems } else { 0 };
        let out_words = match kernel.kind() {
            mpsoc_kernels::KernelKind::Map => 0,
            mpsoc_kernels::KernelKind::Reduce => cores,
        };
        let args_words = kernel.scalar_args().len() as u64 + 1; // + zero word
        let x_word = 0;
        let y_word = x_words;
        let out_word = x_words + y_words;
        let args_word = out_word + out_words;
        let used_words = args_word + args_words;
        if used_words > capacity {
            return Err(OffloadError::TcdmOverflow {
                required: used_words,
                capacity,
            });
        }
        Ok(TcdmLayout {
            x_word,
            y_word,
            out_word,
            args_word,
            used_words,
        })
    }

    /// Builds the [`CoreSlice`] for worker `core` of a cluster whose
    /// chunk starts at absolute element `cluster_start`, given the
    /// absolute per-core chunk.
    pub fn core_slice(
        &self,
        kernel: &dyn Kernel,
        cluster_start: u64,
        core: usize,
        chunk: mpsoc_kernels::partition::Chunk,
    ) -> CoreSlice {
        let rel = chunk.start - cluster_start;
        let out_base = match kernel.kind() {
            mpsoc_kernels::KernelKind::Map => (self.y_word + rel) * WORD_BYTES,
            mpsoc_kernels::KernelKind::Reduce => (self.out_word + core as u64) * WORD_BYTES,
        };
        CoreSlice {
            elems: chunk.count,
            x_base: (self.x_word + kernel.x_halo() + rel * kernel.x_words_per_elem()) * WORD_BYTES,
            y_base: (self.y_word + rel) * WORD_BYTES,
            out_base,
            args_base: self.args_word * WORD_BYTES,
            core_index: core,
        }
    }
}

/// The per-cluster geometry shared by job building: partition plus TCDM
/// plan for each selected cluster.
pub(crate) struct JobGeometry {
    pub partition: JobPartition,
    pub tcdm: Vec<TcdmLayout>,
}

impl JobGeometry {
    pub fn plan(
        kernel: &dyn Kernel,
        n: u64,
        clusters: usize,
        cores: usize,
        tcdm_capacity: u64,
    ) -> Result<Self, OffloadError> {
        let partition = JobPartition::new(n, clusters, cores);
        let tcdm = partition
            .clusters()
            .iter()
            .map(|chunk| TcdmLayout::plan(kernel, chunk.count, cores as u64, tcdm_capacity))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JobGeometry { partition, tcdm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::{Daxpy, Dot};

    #[test]
    fn main_layout_places_disjoint_regions() {
        let map = MemoryMap::new(4, 1 << 20);
        let l = MainLayout::plan_at(&map, 0, 1024, 1024, 32).unwrap();
        assert!(l.desc < l.barrier);
        assert!(l.barrier < l.partials);
        assert!(l.partials < l.x);
        assert_eq!(l.y, l.x.add_words(1024));
    }

    #[test]
    fn plan_at_offsets_shift_everything() {
        let map = MemoryMap::new(4, 1 << 20);
        let a = MainLayout::plan_at(&map, 0, 256, 256, 8).unwrap();
        let span = MainLayout::region_words(256, 256);
        let c = MainLayout::plan_at(&map, span, 256, 256, 8).unwrap();
        assert_eq!(c.desc, a.desc.add_words(span));
        assert_eq!(c.barrier, a.barrier.add_words(span));
        assert_eq!(c.y, a.y.add_words(span));
        assert!(matches!(
            MainLayout::plan_at(&map, (1 << 20) - 10, 256, 256, 8),
            Err(OffloadError::MainMemoryOverflow { .. })
        ));
    }

    #[test]
    fn main_layout_rejects_oversized_jobs() {
        let map = MemoryMap::new(4, 2048);
        assert!(matches!(
            MainLayout::plan_at(&map, 0, 4096, 4096, 8),
            Err(OffloadError::MainMemoryOverflow { .. })
        ));
    }

    #[test]
    fn tcdm_layout_daxpy() {
        let k = Daxpy::new(2.0);
        let l = TcdmLayout::plan(&k, 128, 8, 1 << 15).unwrap();
        assert_eq!(l.x_word, 0);
        assert_eq!(l.y_word, 128);
        assert_eq!(l.args_word, 256);
        assert_eq!(l.used_words, 258); // a + zero word

        let slice = l.core_slice(
            &k,
            1000,
            2,
            mpsoc_kernels::partition::Chunk {
                start: 1032,
                count: 16,
            },
        );
        assert_eq!(slice.elems, 16);
        assert_eq!(slice.x_base, 32 * 8);
        assert_eq!(slice.y_base, (128 + 32) * 8);
        assert_eq!(slice.out_base, slice.y_base);
        assert_eq!(slice.args_base, 256 * 8);
    }

    #[test]
    fn tcdm_layout_reduce_has_partial_slots() {
        let k = Dot::new();
        let l = TcdmLayout::plan(&k, 64, 8, 1 << 15).unwrap();
        // x 64 + y 64 + 8 partials + 1 zero word (no scalars).
        assert_eq!(l.out_word, 128);
        assert_eq!(l.args_word, 136);
        assert_eq!(l.used_words, 137);
        let slice = l.core_slice(
            &k,
            0,
            3,
            mpsoc_kernels::partition::Chunk { start: 8, count: 8 },
        );
        assert_eq!(slice.out_base, (128 + 3) * 8);
    }

    #[test]
    fn tcdm_overflow_detected() {
        let k = Daxpy::new(1.0);
        assert!(matches!(
            TcdmLayout::plan(&k, 10_000, 8, 1024),
            Err(OffloadError::TcdmOverflow { .. })
        ));
    }

    #[test]
    fn geometry_plans_every_cluster() {
        let k = Daxpy::new(1.0);
        let g = JobGeometry::plan(&k, 1000, 3, 8, 1 << 15).unwrap();
        assert_eq!(g.tcdm.len(), 3);
        assert_eq!(g.partition.clusters().len(), 3);
    }
}

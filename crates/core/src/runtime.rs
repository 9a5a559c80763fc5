//! The offload runtime: builds host programs and cluster jobs, runs them
//! on the SoC and extracts results.

use mpsoc_kernels::{GoldenOutput, Kernel, KernelKind};
use mpsoc_mem::ClusterReg;
use mpsoc_noc::ClusterMask;
use mpsoc_sim::Cycle;
use mpsoc_soc::{
    ClusterJob, CompletionSignal, ContentionReport, HostOp, HostProgram, JobId, OffloadOutcome,
    SessionProgress, Soc, SocConfig, Transfer,
};
use serde::{Deserialize, Serialize};

use crate::layout::{JobGeometry, MainLayout};
use crate::recovery::StrikeBoard;
use crate::strategy::{DispatchStrategy, SyncStrategy};
use crate::verify::VerifyReport;
use crate::{OffloadError, OffloadStrategy};

/// Cycle costs of the host-side runtime routines (the software half of
/// the co-design).
///
/// Defaults are calibrated so the extended configuration's constant
/// offload overhead lands near the paper's 367 cycles (see
/// `EXPERIMENTS.md` for the fitted values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeCosts {
    /// Argument marshalling before the descriptor is written.
    pub marshal_cycles: u64,
    /// Loop bookkeeping per cluster in the sequential dispatch loop.
    pub dispatch_loop_cycles: u64,
    /// Interrupt service routine (credit-counter completion path).
    pub isr_cycles: u64,
    /// Spin-loop overhead per software-barrier polling iteration.
    pub spin_cycles: u64,
    /// Barrier-exit bookkeeping after the poll hits.
    pub barrier_exit_cycles: u64,
    /// Host cycles per reduction partial during the combine step.
    pub combine_per_partial_cycles: u64,
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        RuntimeCosts {
            marshal_cycles: 93,
            dispatch_loop_cycles: 6,
            isr_cycles: 62,
            spin_cycles: 4,
            barrier_exit_cycles: 18,
            combine_per_partial_cycles: 3,
        }
    }
}

/// The computed result extracted from main memory after an offload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OffloadResult {
    /// The output `y` vector of a map kernel.
    Vector(Vec<f64>),
    /// The combined scalar of a reduce kernel.
    Scalar(f64),
}

impl OffloadResult {
    /// Verifies this result against the kernel's golden reference over
    /// the original operands (see [`OffloadRun::verify`]).
    pub fn verify(&self, kernel: &dyn Kernel, x: &[f64], y: &[f64]) -> VerifyReport {
        match (kernel.golden(x, y), self) {
            (GoldenOutput::Vector(want), OffloadResult::Vector(got)) => {
                VerifyReport::compare_vectors(got, &want, 0.0)
            }
            (GoldenOutput::Scalar(want), OffloadResult::Scalar(got)) => {
                VerifyReport::compare_scalars(*got, want, 1e-9)
            }
            (GoldenOutput::Vector(want), OffloadResult::Scalar(_)) => {
                VerifyReport::compare_vectors(&[], &want, 0.0)
            }
            (GoldenOutput::Scalar(want), OffloadResult::Vector(_)) => {
                VerifyReport::compare_scalars(f64::NAN, want, 1e-9)
            }
        }
    }
}

/// One completed offload: measurement plus result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OffloadRun {
    /// Timing, energy and per-cluster reports from the SoC.
    pub outcome: OffloadOutcome,
    /// The computed result.
    pub result: OffloadResult,
    /// Problem size.
    pub n: u64,
    /// Clusters employed.
    pub m: usize,
    /// Strategy used.
    pub strategy: OffloadStrategy,
}

impl OffloadRun {
    /// End-to-end runtime in cycles (== nanoseconds at 1 GHz).
    pub fn cycles(&self) -> u64 {
        self.outcome.total.as_u64()
    }

    /// Verifies the result against the kernel's golden reference.
    ///
    /// Map kernels must match bitwise (the simulated FPU and the
    /// reference both use fused multiply-add); reductions are compared
    /// with a relative tolerance because the combination order differs.
    pub fn verify(&self, kernel: &dyn Kernel, x: &[f64], y: &[f64]) -> VerifyReport {
        self.result.verify(kernel, x, y)
    }
}

/// One tenant's completed offload from a concurrent session
/// ([`Offloader::submit_at`] / [`Offloader::advance_jobs`]): the
/// [`OffloadRun`] measured *in company* — its `outcome.total` includes
/// every cycle spent queueing for the shared host core and every
/// contention-stretched phase — plus the SoC's per-job interference
/// attribution.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The job handle returned by [`Offloader::submit_at`].
    pub job: JobId,
    /// When the job was submitted (session virtual time).
    pub submitted_at: Cycle,
    /// When the job's host program retired (session virtual time).
    pub finished_at: Cycle,
    /// Cycles the job's host phases queued behind other tenants on the
    /// serial host core.
    pub host_wait_cycles: u64,
    /// Shared-resource interference (NoC stall, HBM queueing, AMO wait)
    /// attributed to this job.
    pub contention: ContentionReport,
    /// Bitmask of the job's clusters whose DMA engine flagged a CRC
    /// mismatch — the architecturally visible corruption signal the
    /// self-healing runtime retries on. Zero on every fault-free run.
    pub corrupt_clusters: u64,
    /// Injected faults attributed to this job (diagnostic ground truth;
    /// recovery keys off observable signals only).
    pub faults_injected: u64,
    /// The measurement and result, timestamps relative to submission.
    pub run: OffloadRun,
}

/// What one [`Offloader::advance_jobs`] step produced.
#[derive(Debug)]
pub enum SessionStep {
    /// A tenant finished; its completed run.
    Completed(Box<TenantRun>),
    /// The horizon was reached with jobs still in flight.
    Horizon,
    /// No jobs are in flight and no events remain.
    Idle,
}

/// A job checked, loaded into main memory and bound to its clusters
/// (see [`Offloader::stage`]): what the runtime needs to read its
/// result back once it has run.
#[derive(Debug)]
struct Staged {
    layout: MainLayout,
    kind: KernelKind,
    n: u64,
    m: usize,
    partial_slots: u64,
    strategy: OffloadStrategy,
    region_word: u64,
}

impl Staged {
    /// Reads the result back from main memory — the output vector of a
    /// map kernel, the summed partials of a reduce kernel — and pairs
    /// it with the measured `outcome`.
    fn finish(&self, soc: &Soc, outcome: OffloadOutcome) -> Result<OffloadRun, OffloadError> {
        let store = soc.main().store();
        let result = match self.kind {
            KernelKind::Map => OffloadResult::Vector(store.read_f64_slice(self.layout.y, self.n)?),
            KernelKind::Reduce => OffloadResult::Scalar(
                store
                    .read_f64_slice(self.layout.partials, self.partial_slots)?
                    .iter()
                    .sum(),
            ),
        };
        Ok(OffloadRun {
            outcome,
            result,
            n: self.n,
            m: self.m,
            strategy: self.strategy,
        })
    }
}

/// Where [`Offloader::stage`] places a job's main-memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Word 0: a blocking offload has the machine to itself.
    Base,
    /// First fit between the live tenants of a concurrent session.
    FirstFit,
}

/// The offload runtime: owns a simulated SoC and runs kernels on it.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Offloader {
    soc: Soc,
    costs: RuntimeCosts,
    /// In-flight session jobs awaiting completion.
    pending: Vec<(JobId, Staged)>,
    /// Live main-memory regions `(start_word, words)`, sorted by start:
    /// the deterministic first-fit allocator for concurrent tenants.
    regions: Vec<(u64, u64)>,
    /// The self-healing path's strikes and quarantined set (see
    /// [`Offloader::offload_resilient`]); quarantined clusters are
    /// excluded from every future resilient dispatch.
    pub(crate) ledger: StrikeBoard,
}

impl Offloader {
    /// Builds an offloader on a fresh SoC.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Soc`] for an invalid configuration.
    pub fn new(config: SocConfig) -> Result<Self, OffloadError> {
        let clusters = config.clusters;
        Ok(Offloader {
            soc: Soc::new(config)?,
            costs: RuntimeCosts::default(),
            pending: Vec::new(),
            regions: Vec::new(),
            ledger: StrikeBoard::new(clusters),
        })
    }

    /// The SoC configuration in effect.
    pub fn config(&self) -> &SocConfig {
        self.soc.config()
    }

    /// The host-runtime costs in effect.
    pub fn costs(&self) -> &RuntimeCosts {
        &self.costs
    }

    /// The underlying SoC (inspection, tracing).
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Mutable access to the underlying SoC (e.g. enabling traces).
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// Offloads `kernel` over operands `x`/`y` to the first `m` clusters
    /// using `strategy`, returning the measurement and the result.
    ///
    /// # Errors
    ///
    /// Size/geometry violations ([`OffloadError::TooManyClusters`],
    /// [`OffloadError::TcdmOverflow`], ...) and SoC execution failures.
    pub fn offload(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        m: usize,
        strategy: OffloadStrategy,
    ) -> Result<OffloadRun, OffloadError> {
        let mask = self.first_clusters(m)?;
        self.offload_to(kernel, x, y, mask, strategy)
    }

    /// The first `m` clusters of the machine.
    fn first_clusters(&self, m: usize) -> Result<ClusterMask, OffloadError> {
        let available = self.soc.config().clusters;
        if m > available {
            return Err(OffloadError::TooManyClusters {
                requested: m,
                available,
            });
        }
        Ok(ClusterMask::first(m))
    }

    /// Executes `kernel` entirely on the host core (no offload): the
    /// CVA6-class scalar pipeline runs the same micro-op program a
    /// single worker core would, over cached main-memory data. This is
    /// the measured counterpart of
    /// [`decision::HostModel`](crate::decision::HostModel), used by the
    /// break-even analysis.
    ///
    /// # Errors
    ///
    /// Operand mismatches and core faults.
    pub fn run_on_host(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
    ) -> Result<(u64, OffloadResult), OffloadError> {
        let n = y.len() as u64;
        if x.len() as u64 != n * kernel.x_words_per_elem() {
            return Err(OffloadError::OperandMismatch {
                x_len: x.len(),
                y_len: y.len(),
            });
        }
        // Flat image: [left halo] x [right halo], y, out slot
        // (reductions), args + zero word. Halo slots stay zero — the
        // job-boundary semantics of stencil kernels.
        let halo = kernel.x_halo() as usize;
        let x_words = x.len() + 2 * halo;
        let out_word = x_words + y.len();
        let args_word = out_word + 1;
        let args = kernel.scalar_args();
        let mut image = vec![0.0; args_word + args.len() + 1];
        image[halo..halo + x.len()].copy_from_slice(x);
        image[x_words..x_words + y.len()].copy_from_slice(y);
        image[args_word..args_word + args.len()].copy_from_slice(&args);

        let slice = mpsoc_kernels::CoreSlice {
            elems: n,
            x_base: (halo * 8) as u64,
            y_base: (x_words * 8) as u64,
            out_base: match kernel.kind() {
                KernelKind::Map => (x_words * 8) as u64,
                KernelKind::Reduce => (out_word * 8) as u64,
            },
            args_base: (args_word * 8) as u64,
            core_index: 0,
        };
        let program = kernel.codegen(&slice)?;
        let mut port = mpsoc_isa::VecPort::new(image);
        let report = mpsoc_isa::Interpreter::with_timing(mpsoc_isa::CoreTiming::cva6())
            .run(&program, &mut port)
            .map_err(|error| {
                OffloadError::Soc(mpsoc_soc::SocError::Core {
                    cluster: usize::MAX,
                    core: 0,
                    error,
                })
            })?;
        let result = match kernel.kind() {
            KernelKind::Map => {
                OffloadResult::Vector(port.data()[x_words..x_words + y.len()].to_vec())
            }
            KernelKind::Reduce => OffloadResult::Scalar(port.data()[out_word]),
        };
        Ok((report.finish.as_u64(), result))
    }

    /// Offloads a *map* kernel with a software-pipelined (double-buffered)
    /// cluster schedule: each cluster's slice is split into `stages`
    /// sub-slices that alternate between two TCDM buffers, so stage
    /// `k+1`'s DMA-in overlaps stage `k`'s compute and data movement
    /// hides behind arithmetic. An extension beyond the paper's runtime
    /// (whose clusters execute DMA-in → compute → DMA-out sequentially).
    ///
    /// With `stages == 1` this is identical to [`Offloader::offload`].
    ///
    /// # Errors
    ///
    /// [`OffloadError::PipelineUnsupported`] for reduce kernels (their
    /// accumulator spans the whole slice), plus everything
    /// [`Offloader::offload`] can return.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn offload_pipelined(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        m: usize,
        strategy: OffloadStrategy,
        stages: usize,
    ) -> Result<OffloadRun, OffloadError> {
        assert!(stages > 0, "need at least one pipeline stage");
        if stages == 1 {
            return self.offload(kernel, x, y, m, strategy);
        }
        if kernel.kind() != KernelKind::Map || kernel.x_halo() != 0 {
            return Err(OffloadError::PipelineUnsupported {
                kernel: kernel.name().to_owned(),
            });
        }
        let mask = self.first_clusters(m)?;
        let (staged, program) = self.stage(kernel, x, y, mask, strategy, Region::Base, stages)?;
        let outcome = self.soc.run_offload(program, mask)?;
        staged.finish(&self.soc, outcome)
    }

    fn build_pipelined_job(
        &self,
        kernel: &dyn Kernel,
        layout: &MainLayout,
        chunk: mpsoc_kernels::partition::Chunk,
        cores: usize,
        strategy: OffloadStrategy,
        stages: usize,
    ) -> Result<ClusterJob, OffloadError> {
        use mpsoc_kernels::partition::split_even;
        use mpsoc_soc::JobStage;

        let wpe = kernel.x_words_per_elem();
        let subs = split_even(chunk.count, stages);
        let max_sub = subs.iter().map(|s| s.count).max().unwrap_or(0);
        // Two alternating buffers, each holding one sub-slice.
        let x_span = if kernel.uses_x() { max_sub * wpe } else { 0 };
        let y_span = max_sub; // the output buffer (map kernels only)
        let buf_span = x_span + y_span;
        let args_word = 2 * buf_span;
        let required = args_word + kernel.scalar_args().len() as u64 + 1;
        let capacity = self.soc.config().tcdm_words;
        if required > capacity {
            return Err(OffloadError::TcdmOverflow { required, capacity });
        }

        let mut job_stages = Vec::with_capacity(stages);
        for (k, sub) in subs.iter().enumerate() {
            let parity = (k % 2) as u64;
            let x_buf = parity * buf_span;
            let y_buf = parity * buf_span + x_span;
            let abs_start = chunk.start + sub.start;

            let mut dma_in = Vec::new();
            if kernel.uses_x() && sub.count > 0 {
                dma_in.push(Transfer {
                    main_addr: layout.x.add_words(abs_start * wpe),
                    local_word: x_buf,
                    words: sub.count * wpe,
                });
            }
            if kernel.uses_y() && sub.count > 0 {
                dma_in.push(Transfer {
                    main_addr: layout.y.add_words(abs_start),
                    local_word: y_buf,
                    words: sub.count,
                });
            }
            let mut dma_out = Vec::new();
            if sub.count > 0 {
                dma_out.push(Transfer {
                    main_addr: layout.y.add_words(abs_start),
                    local_word: y_buf,
                    words: sub.count,
                });
            }

            let programs = split_even(sub.count, cores)
                .iter()
                .enumerate()
                .map(|(core, core_chunk)| {
                    let slice = mpsoc_kernels::CoreSlice {
                        elems: core_chunk.count,
                        x_base: (x_buf + core_chunk.start * wpe) * mpsoc_mem::WORD_BYTES,
                        y_base: (y_buf + core_chunk.start) * mpsoc_mem::WORD_BYTES,
                        out_base: (y_buf + core_chunk.start) * mpsoc_mem::WORD_BYTES,
                        args_base: args_word * mpsoc_mem::WORD_BYTES,
                        core_index: core,
                    };
                    kernel.codegen(&slice)
                })
                .collect::<Result<Vec<_>, _>>()?;

            job_stages.push(JobStage {
                dma_in,
                programs,
                dma_out,
            });
        }

        let completion = match strategy.sync {
            SyncStrategy::CreditCounter => CompletionSignal::Credit,
            SyncStrategy::SoftwareBarrier => CompletionSignal::Barrier {
                addr: layout.barrier,
            },
        };
        Ok(ClusterJob {
            stages: job_stages,
            args: kernel.scalar_args(),
            args_local_word: args_word,
            completion,
        })
    }

    /// Offloads to an arbitrary set of clusters (e.g. the upper half of
    /// the machine while the lower half runs another tenant's job).
    ///
    /// # Errors
    ///
    /// As [`Offloader::offload`].
    pub fn offload_to(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
    ) -> Result<OffloadRun, OffloadError> {
        let (staged, program) = self.stage(kernel, x, y, mask, strategy, Region::Base, 1)?;
        let outcome = self.soc.run_offload(program, mask)?;
        staged.finish(&self.soc, outcome)
    }

    /// Opens a concurrent-job session: resets the SoC's virtual time,
    /// shared-resource models and statistics, and clears the runtime's
    /// region allocator. Jobs are then placed with
    /// [`Offloader::submit_at`] and driven with
    /// [`Offloader::advance_jobs`]; tenants on disjoint cluster
    /// partitions overlap in time on the shared NoC, HBM and host core.
    pub fn begin_jobs(&mut self) {
        self.soc.begin_jobs();
        self.pending.clear();
        self.regions.clear();
    }

    /// Submits `kernel` over `x`/`y` to the clusters in `mask` at
    /// session time `at` (clamped forward to "now"), returning a job
    /// handle. The job's operands live in a private main-memory region
    /// (deterministic first-fit), so concurrent tenants never alias.
    ///
    /// # Errors
    ///
    /// Everything [`Offloader::offload_to`] can return, plus
    /// [`mpsoc_soc::SocError::PartitionOverlap`] (via
    /// [`OffloadError::Soc`]) when `mask` intersects a tenant still in
    /// flight, and [`OffloadError::MainMemoryOverflow`] when no region
    /// fits between the live tenants.
    pub fn submit_at(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
        at: Cycle,
    ) -> Result<JobId, OffloadError> {
        let (staged, program) = self.stage(kernel, x, y, mask, strategy, Region::FirstFit, 1)?;
        match self.soc.submit_job(program, mask, at) {
            Ok(job) => {
                self.pending.push((job, staged));
                Ok(job)
            }
            Err(e) => {
                self.free_region(staged.region_word);
                Err(e.into())
            }
        }
    }

    /// Checks `mask` and the operands, places the job's main-memory
    /// region, loads the operands and binds one cluster job per cluster
    /// of `mask` — the software-pipelined schedule when `stages > 1`.
    /// Returns the staged job and the host program that launches it; a
    /// failure frees the region it placed.
    #[allow(clippy::too_many_arguments)] // internal builder mirroring the job's natural parameters
    fn stage(
        &mut self,
        kernel: &dyn Kernel,
        x: &[f64],
        y: &[f64],
        mask: ClusterMask,
        strategy: OffloadStrategy,
        region: Region,
        stages: usize,
    ) -> Result<(Staged, HostProgram), OffloadError> {
        let m = mask.count();
        let available = self.soc.config().clusters;
        match mask.highest() {
            None => return Err(OffloadError::NoClusters),
            Some(highest) if highest >= available => {
                return Err(OffloadError::TooManyClusters {
                    requested: highest + 1,
                    available,
                })
            }
            Some(_) => {}
        }
        // The job size is the output length; `x` must hold
        // `x_words_per_elem` words per element (1 for vector kernels,
        // `K` for matrix kernels like GEMV).
        let n = y.len() as u64;
        let x_words = n * kernel.x_words_per_elem();
        if x.len() as u64 != x_words {
            return Err(OffloadError::OperandMismatch {
                x_len: x.len(),
                y_len: y.len(),
            });
        }
        let cores = self.soc.config().cores_per_cluster;
        // One partial slot per core (reduce kernels write them); the
        // pipelined schedule runs map kernels only and reserves none.
        let partial_slots = if stages == 1 { (m * cores) as u64 } else { 0 };
        let region_word = match region {
            Region::Base => 0,
            Region::FirstFit => self.alloc_region(MainLayout::region_words(x_words, n))?,
        };
        let bound = (|| {
            let layout =
                MainLayout::plan_at(self.soc.map(), region_word, x_words, n, partial_slots)?;
            // The job geometry is indexed by *position* within the
            // mask, not by cluster id.
            let jobs = if stages == 1 {
                let geometry =
                    JobGeometry::plan(kernel, n, m, cores, self.soc.config().tcdm_words)?;
                (0..m)
                    .map(|position| {
                        self.build_cluster_job(
                            kernel, &geometry, &layout, position, n, cores, strategy,
                        )
                    })
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                mpsoc_kernels::partition::JobPartition::new(n, m, cores)
                    .clusters()
                    .iter()
                    .map(|&chunk| {
                        self.build_pipelined_job(kernel, &layout, chunk, cores, strategy, stages)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };

            // Load operands (zero-time test-bench initialization, as the
            // paper's measurements also exclude input generation). The
            // reserved zero word feeds halo zero-fills at job edges.
            let store = self.soc.main_mut().store_mut();
            store.write_f64_slice(layout.x, x)?;
            store.write_f64_slice(layout.y, y)?;
            store.write_u64(layout.zero, 0)?;
            for (cluster, job) in mask.iter().zip(jobs) {
                self.soc.bind_job(cluster, job);
            }

            let program = self.build_host_program(kernel, &layout, n, mask, cores, strategy);
            Ok::<_, OffloadError>((layout, program))
        })();
        match bound {
            Ok((layout, program)) => Ok((
                Staged {
                    layout,
                    kind: kernel.kind(),
                    n,
                    m,
                    partial_slots,
                    strategy,
                    region_word,
                },
                program,
            )),
            Err(e) => {
                if region == Region::FirstFit {
                    self.free_region(region_word);
                }
                Err(e)
            }
        }
    }

    /// Advances the session until a tenant completes, the event queue
    /// drains, or virtual time would pass `horizon`. On completion the
    /// tenant's result is read back from its region and the region is
    /// freed for later submissions.
    ///
    /// # Errors
    ///
    /// Fatal SoC execution errors and result read-back failures.
    pub fn advance_jobs(&mut self, horizon: Cycle) -> Result<SessionStep, OffloadError> {
        match self.soc.advance_jobs(horizon)? {
            SessionProgress::Completed(c) => {
                let at = self
                    .pending
                    .iter()
                    .position(|&(job, _)| job == c.job)
                    .expect("completion for a job this runtime never submitted");
                let (_, staged) = self.pending.remove(at);
                self.free_region(staged.region_word);
                Ok(SessionStep::Completed(Box::new(TenantRun {
                    job: c.job,
                    submitted_at: c.submitted_at,
                    finished_at: c.finished_at,
                    host_wait_cycles: c.host_wait_cycles,
                    contention: c.contention,
                    corrupt_clusters: c.corrupt_clusters,
                    faults_injected: c.faults_injected,
                    run: staged.finish(&self.soc, c.outcome)?,
                })))
            }
            SessionProgress::Horizon => Ok(SessionStep::Horizon),
            SessionProgress::Idle => Ok(SessionStep::Idle),
        }
    }

    /// Current session virtual time.
    pub fn session_now(&self) -> Cycle {
        self.soc.session_now()
    }

    /// Jobs submitted but not yet completed.
    pub fn jobs_in_flight(&self) -> usize {
        self.soc.jobs_in_flight()
    }

    /// First-fit region allocation over the live-region list (kept
    /// sorted by start word), deterministic across runs.
    fn alloc_region(&mut self, words: u64) -> Result<u64, OffloadError> {
        let capacity = self.soc.map().main_words();
        let mut start = 0u64;
        for &(live_start, live_words) in &self.regions {
            if start + words <= live_start {
                break;
            }
            start = live_start + live_words;
        }
        if start + words > capacity {
            return Err(OffloadError::MainMemoryOverflow {
                required: start + words,
                capacity,
            });
        }
        let at = self
            .regions
            .iter()
            .position(|&(s, _)| s > start)
            .unwrap_or(self.regions.len());
        self.regions.insert(at, (start, words));
        Ok(start)
    }

    fn free_region(&mut self, start: u64) {
        self.regions.retain(|&(s, _)| s != start);
    }

    #[allow(clippy::too_many_arguments)] // internal builder mirroring the job's natural parameters
    fn build_cluster_job(
        &self,
        kernel: &dyn Kernel,
        geometry: &JobGeometry,
        layout: &MainLayout,
        position: usize,
        n: u64,
        cores: usize,
        strategy: OffloadStrategy,
    ) -> Result<ClusterJob, OffloadError> {
        let chunk = geometry.partition.clusters()[position];
        let tcdm = &geometry.tcdm[position];

        let mut dma_in = Vec::new();
        if kernel.uses_x() && chunk.count > 0 {
            let wpe = kernel.x_words_per_elem();
            let halo = kernel.x_halo();
            debug_assert!(
                halo == 0 || wpe == 1,
                "halos are only supported for one-word-per-element kernels"
            );
            // Fetch the slice plus as much halo as exists in the job;
            // job-edge halo slots are zero-filled from the reserved word.
            let fetch_start = chunk.start.saturating_sub(halo);
            let fetch_end = (chunk.end() + halo).min(n);
            let left_missing = halo - (chunk.start - fetch_start);
            let right_missing = halo - (fetch_end - chunk.end());
            for i in 0..left_missing {
                dma_in.push(Transfer {
                    main_addr: layout.zero,
                    local_word: tcdm.x_word + i,
                    words: 1,
                });
            }
            dma_in.push(Transfer {
                main_addr: layout.x.add_words(fetch_start * wpe),
                local_word: tcdm.x_word + left_missing,
                words: (fetch_end - fetch_start) * wpe,
            });
            for i in 0..right_missing {
                dma_in.push(Transfer {
                    main_addr: layout.zero,
                    local_word: tcdm.x_word + left_missing + (fetch_end - fetch_start) + i,
                    words: 1,
                });
            }
        }
        if kernel.uses_y() && chunk.count > 0 {
            dma_in.push(Transfer {
                main_addr: layout.y.add_words(chunk.start),
                local_word: tcdm.y_word,
                words: chunk.count,
            });
        }

        let mut dma_out = Vec::new();
        match kernel.kind() {
            KernelKind::Map => {
                if chunk.count > 0 {
                    dma_out.push(Transfer {
                        main_addr: layout.y.add_words(chunk.start),
                        local_word: tcdm.y_word,
                        words: chunk.count,
                    });
                }
            }
            KernelKind::Reduce => {
                dma_out.push(Transfer {
                    main_addr: layout.partials.add_words((position * cores) as u64),
                    local_word: tcdm.out_word,
                    words: cores as u64,
                });
            }
        }

        let programs = geometry
            .partition
            .cores(position)
            .iter()
            .enumerate()
            .map(|(core, &core_chunk)| {
                let slice = tcdm.core_slice(kernel, chunk.start, core, core_chunk);
                kernel.codegen(&slice)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let completion = match strategy.sync {
            SyncStrategy::CreditCounter => CompletionSignal::Credit,
            SyncStrategy::SoftwareBarrier => CompletionSignal::Barrier {
                addr: layout.barrier,
            },
        };

        Ok(ClusterJob::single(
            programs,
            dma_in,
            dma_out,
            kernel.scalar_args(),
            tcdm.args_word,
            completion,
        ))
    }

    fn build_host_program(
        &self,
        kernel: &dyn Kernel,
        layout: &MainLayout,
        n: u64,
        mask: ClusterMask,
        cores: usize,
        strategy: OffloadStrategy,
    ) -> HostProgram {
        let costs = &self.costs;
        let m = mask.count();
        let mut ops = Vec::new();

        // 1. Marshal the job descriptor and write it out.
        ops.push(HostOp::Compute(costs.marshal_cycles));
        let args = kernel.scalar_args();
        let desc_len = self.soc.config().descriptor_words as usize;
        let mut desc = vec![0u64; desc_len];
        desc[0] = layout.x.as_u64();
        if desc_len > 1 {
            desc[1] = layout.y.as_u64();
        }
        if desc_len > 2 {
            desc[2] = m as u64;
        }
        for (i, a) in args.iter().enumerate() {
            if 3 + i < desc_len {
                desc[3 + i] = a.to_bits();
            }
        }
        ops.push(HostOp::WriteWords {
            addr: layout.desc,
            values: desc,
        });

        // 2. Serial operand preparation (the paper's N/4 data term):
        //    flush inputs to accelerator-visible memory and
        //    allocate/invalidate the output lines.
        let in_words = kernel.dma_in_words(n);
        let out_words = kernel.dma_out_words(n, (m * cores) as u64);
        ops.push(HostOp::PrepareOperands {
            words: in_words + out_words,
        });

        // 3. Prepare the synchronization mechanism.
        match strategy.sync {
            SyncStrategy::CreditCounter => {
                ops.push(HostOp::CreditArm {
                    threshold: m as u64,
                });
            }
            SyncStrategy::SoftwareBarrier => {
                ops.push(HostOp::StoreUncachedMain {
                    addr: layout.barrier,
                    value: 0,
                });
            }
        }

        // 4. Dispatch.
        match strategy.dispatch {
            DispatchStrategy::Multicast => {
                ops.push(HostOp::MulticastMailbox {
                    mask,
                    reg: ClusterReg::JobPtr,
                    value: layout.desc.as_u64(),
                });
                ops.push(HostOp::MulticastMailbox {
                    mask,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                });
            }
            DispatchStrategy::Sequential => {
                for cluster in mask.iter() {
                    ops.push(HostOp::Compute(costs.dispatch_loop_cycles));
                    ops.push(HostOp::StoreMailbox {
                        cluster,
                        reg: ClusterReg::JobPtr,
                        value: layout.desc.as_u64(),
                    });
                    ops.push(HostOp::StoreMailbox {
                        cluster,
                        reg: ClusterReg::Wakeup,
                        value: 1,
                    });
                }
            }
        }

        // 5. Wait for completion.
        match strategy.sync {
            SyncStrategy::CreditCounter => {
                ops.push(HostOp::WaitIrq);
                ops.push(HostOp::Compute(costs.isr_cycles));
            }
            SyncStrategy::SoftwareBarrier => {
                ops.push(HostOp::PollUntilEq {
                    addr: layout.barrier,
                    value: m as u64,
                    spin_cycles: costs.spin_cycles,
                });
                ops.push(HostOp::Compute(costs.barrier_exit_cycles));
            }
        }

        // 6. Reductions: combine per-core partials on the host.
        if kernel.kind() == KernelKind::Reduce {
            let partials = (m * cores) as u64;
            ops.push(HostOp::Compute(costs.combine_per_partial_cycles * partials));
        }

        ops.push(HostOp::End);
        HostProgram::new(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernels::{Daxpy, Dot, Memset};

    fn offloader(clusters: usize) -> Offloader {
        Offloader::new(SocConfig::with_clusters(clusters)).unwrap()
    }

    fn ramp(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.25).collect();
        let y: Vec<f64> = (0..n).map(|i| 10.0 - (i % 31) as f64).collect();
        (x, y)
    }

    #[test]
    fn daxpy_round_trip_both_strategies() {
        let mut off = offloader(4);
        let kernel = Daxpy::new(2.5);
        let (x, y) = ramp(256);
        for strategy in [OffloadStrategy::baseline(), OffloadStrategy::extended()] {
            let run = off.offload(&kernel, &x, &y, 4, strategy).unwrap();
            let report = run.verify(&kernel, &x, &y);
            assert!(report.passed(), "{strategy}: {report}");
            assert!(run.cycles() > 0);
            assert_eq!(run.n, 256);
            assert_eq!(run.m, 4);
        }
    }

    #[test]
    fn extended_beats_baseline() {
        let mut off = offloader(8);
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(1024);
        let base = off
            .offload(&kernel, &x, &y, 8, OffloadStrategy::baseline())
            .unwrap();
        let ext = off
            .offload(&kernel, &x, &y, 8, OffloadStrategy::extended())
            .unwrap();
        assert!(
            ext.cycles() < base.cycles(),
            "extended {} should beat baseline {}",
            ext.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn reduce_kernel_combines_partials() {
        let mut off = offloader(4);
        let kernel = Dot::new();
        let (x, y) = ramp(512);
        let run = off
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();
        let report = run.verify(&kernel, &x, &y);
        assert!(report.passed(), "{report}");
        match run.result {
            OffloadResult::Scalar(s) => assert!(s.is_finite()),
            OffloadResult::Vector(_) => panic!("dot must produce a scalar"),
        }
    }

    #[test]
    fn memset_requires_no_input_streams() {
        let mut off = offloader(2);
        let kernel = Memset::new(7.5);
        let (x, y) = ramp(128);
        let run = off
            .offload(&kernel, &x, &y, 2, OffloadStrategy::extended())
            .unwrap();
        assert!(run.verify(&kernel, &x, &y).passed());
    }

    #[test]
    fn geometry_errors_are_surfaced() {
        let mut off = offloader(2);
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(64);
        assert!(matches!(
            off.offload(&kernel, &x, &y, 3, OffloadStrategy::extended()),
            Err(OffloadError::TooManyClusters { .. })
        ));
        assert!(matches!(
            off.offload(&kernel, &x, &y, 0, OffloadStrategy::extended()),
            Err(OffloadError::NoClusters)
        ));
        assert!(matches!(
            off.offload(&kernel, &x[..10], &y, 2, OffloadStrategy::extended()),
            Err(OffloadError::OperandMismatch { .. })
        ));
    }

    #[test]
    fn repeated_offloads_are_deterministic() {
        let mut off = offloader(4);
        let kernel = Daxpy::new(3.0);
        let (x, y) = ramp(512);
        let a = off
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();
        let b = off
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn session_single_tenant_matches_blocking_offload() {
        let kernel = Daxpy::new(2.5);
        let (x, y) = ramp(256);
        let mut legacy = offloader(4);
        let want = legacy
            .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
            .unwrap();

        let mut off = offloader(4);
        off.begin_jobs();
        let job = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::first(4),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        let done = match off.advance_jobs(Cycle::MAX).unwrap() {
            SessionStep::Completed(t) => t,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(done.job, job);
        assert_eq!(done.run.cycles(), want.cycles());
        assert_eq!(done.run.result, want.result);
        assert_eq!(done.host_wait_cycles, 0);
        assert!(matches!(
            off.advance_jobs(Cycle::MAX).unwrap(),
            SessionStep::Idle
        ));
        assert_eq!(off.jobs_in_flight(), 0);
    }

    #[test]
    fn concurrent_tenants_verify_and_interfere() {
        let kernel = Daxpy::new(1.5);
        let (x, y) = ramp(512);
        // Solo reference on the same partition shape.
        let mut solo = offloader(4);
        let solo_run = solo
            .offload_to(
                &kernel,
                &x,
                &y,
                ClusterMask::range(2, 2),
                OffloadStrategy::extended(),
            )
            .unwrap();

        let mut off = offloader(4);
        off.begin_jobs();
        let a = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::first(2),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        let b = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::range(2, 2),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        assert_eq!(off.jobs_in_flight(), 2);
        let mut done = Vec::new();
        while let SessionStep::Completed(t) = off.advance_jobs(Cycle::MAX).unwrap() {
            done.push(*t);
        }
        assert_eq!(done.len(), 2);
        for t in &done {
            assert!(t.run.verify(&kernel, &x, &y).passed(), "job {}", t.job);
        }
        let b_run = done.iter().find(|t| t.job == b).unwrap();
        let a_run = done.iter().find(|t| t.job == a).unwrap();
        // The second tenant queued behind the first on the serial host.
        assert!(b_run.host_wait_cycles > 0);
        assert!(b_run.run.cycles() > solo_run.cycles());
        assert!(a_run.run.cycles() >= solo_run.cycles());
    }

    #[test]
    fn session_rejects_overlapping_partitions_and_recovers() {
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(128);
        let mut off = offloader(4);
        off.begin_jobs();
        off.submit_at(
            &kernel,
            &x,
            &y,
            ClusterMask::first(2),
            OffloadStrategy::extended(),
            Cycle::ZERO,
        )
        .unwrap();
        let err = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::first(4),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            OffloadError::Soc(mpsoc_soc::SocError::PartitionOverlap { .. })
        ));
        // The failed submission released its region: a disjoint tenant
        // still fits and the session drains cleanly.
        off.submit_at(
            &kernel,
            &x,
            &y,
            ClusterMask::range(2, 2),
            OffloadStrategy::extended(),
            Cycle::ZERO,
        )
        .unwrap();
        let mut completions = 0;
        while let SessionStep::Completed(_) = off.advance_jobs(Cycle::MAX).unwrap() {
            completions += 1;
        }
        assert_eq!(completions, 2);
    }

    #[test]
    fn region_allocator_is_first_fit_and_reuses_freed_space() {
        let kernel = Daxpy::new(1.0);
        let (x, y) = ramp(64);
        let mut off = offloader(4);
        off.begin_jobs();
        let first = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::single(0),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        assert_eq!(off.regions.len(), 1);
        let (first_start, span) = off.regions[0];
        assert_eq!(first_start, 0);
        let _second = off
            .submit_at(
                &kernel,
                &x,
                &y,
                ClusterMask::single(1),
                OffloadStrategy::extended(),
                Cycle::ZERO,
            )
            .unwrap();
        assert_eq!(
            off.regions[1].0, span,
            "second tenant packs after the first"
        );
        // Drain the first completion, then a third tenant reuses slot 0.
        let done = loop {
            match off.advance_jobs(Cycle::MAX).unwrap() {
                SessionStep::Completed(t) => break t,
                SessionStep::Horizon => continue,
                SessionStep::Idle => panic!("jobs still pending"),
            }
        };
        assert_eq!(done.job, first);
        let at = off.session_now();
        off.submit_at(
            &kernel,
            &x,
            &y,
            ClusterMask::single(2),
            OffloadStrategy::extended(),
            at,
        )
        .unwrap();
        assert_eq!(off.regions[0].0, 0, "freed head region is reused first");
    }

    #[test]
    fn uneven_sizes_still_verify() {
        let mut off = offloader(4);
        let kernel = Daxpy::new(-0.5);
        for n in [1usize, 7, 63, 100, 257, 1000] {
            let (x, y) = ramp(n);
            let run = off
                .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
                .unwrap();
            assert!(
                run.verify(&kernel, &x, &y).passed(),
                "n={n} failed verification"
            );
        }
    }
}

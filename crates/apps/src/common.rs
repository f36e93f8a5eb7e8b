//! Shared infrastructure for the application ports: the unified-buffer
//! abstraction implementing the paper's Figure 2 code transformation.

use gh_sim::{Buffer, Machine, MemMode, Node};

/// A data buffer under one of the three memory-management strategies.
///
/// * `Explicit`: a host (`malloc`) / device (`cudaMalloc`) pair with
///   explicit `cudaMemcpy` at phase boundaries — the original pattern;
/// * `System` / `Managed`: one unified buffer; uploads/downloads become
///   no-ops (plus the device synchronization the paper adds to preserve
///   semantics).
#[derive(Debug)]
pub struct UBuf {
    mode: MemMode,
    host: Option<Buffer>,
    dev: Buffer,
    /// Requested (un-rounded) size: allocators round up to their page
    /// granularity, but copies and host access use the logical size.
    bytes: u64,
}

impl UBuf {
    /// Allocates `bytes` under `mode`.
    pub fn alloc(m: &mut Machine, mode: MemMode, bytes: u64, tag: &str) -> UBuf {
        match mode {
            MemMode::Explicit => {
                let host =
                    m.rt.malloc_system(gh_units::Bytes::new(bytes), &format!("{tag}.host"));
                let dev =
                    m.rt.cuda_malloc(gh_units::Bytes::new(bytes), &format!("{tag}.dev"))
                        .expect("explicit version assumes the buffer fits in GPU memory"); // gh-audit: allow(no-unwrap-in-lib) -- explicit mode asserts the working set fits in HBM; oversizing is an experiment-config error
                UBuf {
                    mode,
                    host: Some(host),
                    dev,
                    bytes,
                }
            }
            MemMode::System => UBuf {
                mode,
                host: None,
                dev: m.rt.malloc_system(gh_units::Bytes::new(bytes), tag),
                bytes,
            },
            MemMode::Managed => UBuf {
                mode,
                host: None,
                dev: m.rt.cuda_malloc_managed(gh_units::Bytes::new(bytes), tag),
                bytes,
            },
        }
    }

    /// Allocates a buffer that the original code kept GPU-only (never
    /// copied to/from the host). The paper's unified ports still convert
    /// these when they are *initialized by a GPU kernel* and later read
    /// through unified access (the SRAD derivative arrays); explicit mode
    /// keeps plain `cudaMalloc`.
    pub fn alloc_gpu_scratch(m: &mut Machine, mode: MemMode, bytes: u64, tag: &str) -> UBuf {
        match mode {
            MemMode::Explicit => UBuf {
                mode,
                host: None,
                dev: m
                    .rt
                    .cuda_malloc(gh_units::Bytes::new(bytes), tag)
                    .expect("explicit version assumes scratch fits in GPU memory"), // gh-audit: allow(no-unwrap-in-lib) -- explicit mode asserts scratch fits in HBM; oversizing is an experiment-config error
                bytes,
            },
            _ => UBuf::alloc(m, mode, bytes, tag),
        }
    }

    /// The buffer GPU kernels should access.
    pub fn gpu(&self) -> &Buffer {
        &self.dev
    }

    /// The buffer the CPU should access (host side for explicit mode).
    pub fn cpu(&self) -> &Buffer {
        self.host.as_ref().unwrap_or(&self.dev)
    }

    /// Logical length in bytes (the requested size, before page
    /// rounding).
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// Whether the buffer is zero-length (never for live buffers).
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// CPU-side sequential initialization of `[off, off+len)`.
    pub fn cpu_init(&self, m: &mut Machine, off: u64, len: u64) {
        m.rt.cpu_write(self.cpu(), off, len);
    }

    /// Makes CPU-written data visible to the GPU: `cudaMemcpy` H2D for
    /// explicit mode, nothing for unified modes.
    pub fn upload(&self, m: &mut Machine) {
        if let Some(host) = &self.host {
            m.rt.memcpy(&self.dev, 0, host, 0, self.len());
        }
    }

    /// Makes GPU results visible to the CPU: `cudaMemcpy` D2H for
    /// explicit mode, a direct CPU read for unified modes (which the
    /// paper precedes with `cudaDeviceSynchronize`).
    pub fn download(&self, m: &mut Machine, off: u64, len: u64) {
        match &self.host {
            Some(host) => {
                m.rt.memcpy(host, off, &self.dev, off, len);
            }
            None => {
                m.rt.device_synchronize();
                m.rt.cpu_read(&self.dev, off, len);
            }
        }
    }

    /// Frees the buffer(s).
    pub fn free(self, m: &mut Machine) {
        if let Some(host) = self.host {
            m.rt.free(host);
        }
        m.rt.free(self.dev);
    }

    /// Prefetches the whole buffer to a node (managed memory only).
    pub fn prefetch(&self, m: &mut Machine, to: Node) {
        assert_eq!(self.mode, MemMode::Managed, "prefetch needs managed memory");
        m.rt.prefetch(&self.dev, 0, self.len(), to);
    }
}

/// Merges `(offset, len)` touches into maximal contiguous spans — the
/// coalesced transactions a GPU would issue for irregular-but-clustered
/// gathers. The sort-and-merge oracle the sort-free span builders
/// ([`IdSet::runs`], BFS's edge spans) are tested against.
#[cfg(test)]
pub(crate) fn coalesce(mut touches: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    touches.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(touches.len());
    for (off, len) in touches {
        if len == 0 {
            continue;
        }
        match out.last_mut() {
            Some((o, l)) if *o + *l >= off => {
                let end = (off + len).max(*o + *l);
                *l = end - *o;
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// A set of ids below a fixed universe, kept as a bitmap, whose
/// [`runs`](IdSet::runs) of consecutive ids are the coalesced spans of
/// its unit touches: scaled by `unit`, they are what [`coalesce`] makes
/// of the touches `(id * unit, unit)`, span for span, since two such
/// touches merge exactly when their ids are consecutive. The runs depend
/// only on which ids were inserted, never on the order or multiplicity
/// of the inserts. Building them costs O(inserts + touched words) with no
/// sort and no id list; one set serves every level of a BFS through
/// [`clear`](IdSet::clear).
#[derive(Debug)]
pub(crate) struct IdSet {
    bits: Vec<u64>,
    /// Touched word range `[lo, hi)`; empty when `lo >= hi`.
    lo: usize,
    hi: usize,
}

impl IdSet {
    /// An empty set over ids `0..universe`.
    pub(crate) fn new(universe: usize) -> IdSet {
        let words = universe.div_ceil(64);
        IdSet {
            bits: vec![0; words],
            lo: words,
            hi: 0,
        }
    }

    /// Adds `id` (idempotent).
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        let w = id as usize / 64;
        self.bits[w] |= 1u64 << (id % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// The set's maximal runs of consecutive ids as `(first, count)`,
    /// ascending.
    pub(crate) fn runs(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut run_start: Option<u64> = None;
        let mut run_end = 0u64; // exclusive end of the open run
        for (w, &bits_w) in self.bits.iter().enumerate().take(self.hi).skip(self.lo) {
            let mut word = bits_w;
            while word != 0 {
                let id = (w as u64) * 64 + word.trailing_zeros() as u64;
                word &= word - 1; // clear lowest set bit
                match run_start {
                    Some(_) if id == run_end => run_end = id + 1,
                    Some(s) => {
                        out.push((s, run_end - s));
                        run_start = Some(id);
                        run_end = id + 1;
                    }
                    None => {
                        run_start = Some(id);
                        run_end = id + 1;
                    }
                }
            }
        }
        if let Some(s) = run_start {
            out.push((s, run_end - s));
        }
        out
    }

    /// Empties the set, zeroing only the words inserts touched.
    pub(crate) fn clear(&mut self) {
        if self.lo < self.hi {
            self.bits[self.lo..self.hi].fill(0);
        }
        self.lo = self.bits.len();
        self.hi = 0;
    }
}

/// The byte spans of `unit`-sized elements over runs of consecutive ids.
pub(crate) fn scaled(runs: &[(u64, u64)], unit: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    runs.iter()
        .map(move |&(id, count)| (id * unit, count * unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::params::MIB;
    use gh_sim::BufKind;

    #[test]
    fn explicit_mode_allocates_pair() {
        let mut m = gh_sim::platform::gh200().machine();
        let b = UBuf::alloc(&mut m, MemMode::Explicit, MIB, "x");
        assert_eq!(b.cpu().kind, BufKind::System);
        assert_eq!(b.gpu().kind, BufKind::Device);
        assert_ne!(b.cpu().id(), b.gpu().id());
        b.free(&mut m);
    }

    #[test]
    fn unified_modes_share_one_buffer() {
        for mode in [MemMode::System, MemMode::Managed] {
            let mut m = gh_sim::platform::gh200().machine();
            let b = UBuf::alloc(&mut m, mode, MIB, "x");
            assert_eq!(b.cpu().id(), b.gpu().id());
            b.free(&mut m);
        }
    }

    #[test]
    fn upload_copies_only_in_explicit_mode() {
        let mut m = gh_sim::platform::gh200().machine();
        let b = UBuf::alloc(&mut m, MemMode::Explicit, MIB, "x");
        b.cpu_init(&mut m, 0, MIB);
        let before = m.rt.link().bytes_h2d();
        b.upload(&mut m);
        assert_eq!(m.rt.link().bytes_h2d() - before, gh_units::Bytes::new(MIB));

        let mut m2 = gh_sim::platform::gh200().machine();
        let b2 = UBuf::alloc(&mut m2, MemMode::System, MIB, "x");
        b2.cpu_init(&mut m2, 0, MIB);
        let before = m2.rt.link().bytes_h2d();
        b2.upload(&mut m2);
        assert_eq!(m2.rt.link().bytes_h2d(), before, "no copy in system mode");
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let spans = coalesce(vec![(0, 8), (8, 8), (32, 4), (100, 8), (30, 4)]);
        assert_eq!(spans, vec![(0, 16), (30, 6), (100, 8)]);
    }

    #[test]
    fn coalesce_drops_empty_and_sorts() {
        let spans = coalesce(vec![(50, 0), (10, 2), (4, 2)]);
        assert_eq!(spans, vec![(4, 2), (10, 2)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `runs()` scaled by `unit` is `coalesce` over the unit touches
        /// for any id
        /// multiset, on universes that end on, just before and just after
        /// a 64-bit word edge, with one set reused across levels.
        #[test]
        fn id_set_runs_equal_coalesce(
            universe in proptest::prop_oneof![1usize..4, 62usize..67, 126usize..131, 1usize..400],
            unit in proptest::prop_oneof![proptest::prelude::Just(1u64), proptest::prelude::Just(4), proptest::prelude::Just(8)],
            levels in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000_000, 0..300),
                1..5,
            ),
        ) {
            let mut set = IdSet::new(universe);
            for level in levels {
                set.clear();
                let ids: Vec<u32> = level.iter().map(|&r| r % universe as u32).collect();
                for &id in &ids {
                    set.insert(id);
                }
                let reference =
                    coalesce(ids.iter().map(|&id| (u64::from(id) * unit, unit)).collect());
                proptest::prop_assert_eq!(scaled(&set.runs(), unit).collect::<Vec<_>>(), reference);
            }
        }
    }

    #[test]
    fn id_set_runs_match_coalesce() {
        // The bitmap must match sort+merge span for span on scattered,
        // duplicated, clustered, and boundary-straddling ids, and one set
        // reused through `clear` must forget every earlier level.
        let mut state = 7u64;
        for unit in [1u64, 4, 8] {
            for universe in [1usize, 63, 64, 65, 1000] {
                let mut set = IdSet::new(universe);
                for level in 0..3 {
                    let mut ids: Vec<u32> = (0..universe * 2 / (level + 1))
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            ((state >> 33) as usize % universe) as u32
                        })
                        .collect();
                    ids.push(0);
                    ids.push((universe - 1) as u32);
                    set.clear();
                    for &id in &ids {
                        set.insert(id);
                    }
                    let reference =
                        coalesce(ids.iter().map(|&id| (u64::from(id) * unit, unit)).collect());
                    assert_eq!(
                        scaled(&set.runs(), unit).collect::<Vec<_>>(),
                        reference,
                        "unit={unit} universe={universe} level={level}"
                    );
                }
            }
        }
        let mut set = IdSet::new(100);
        assert!(set.runs().is_empty());
        set.insert(99);
        set.clear();
        assert!(set.runs().is_empty());
    }
}

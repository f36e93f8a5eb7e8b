//! Kernel launch recording: the access-metering API and the
//! access-counter migration driver.
//!
//! A [`Kernel`] is what the `<<<grid, block>>>` launch returns in this
//! model. The application's *real* compute runs outside (on `gh-par`);
//! the kernel object receives a description of the memory accesses the
//! compute performed — dense spans, strided segments, gathers — plus a
//! compute-work declaration, and turns them into:
//!
//! * translation activity (GPU TLB, ATS requests to the SMMU);
//! * first-touch fault service (system memory → expensive CPU-serviced
//!   ATS faults; managed memory → cheap GPU-block population);
//! * on-demand managed migration with speculative prefetch and eviction;
//! * remote cacheline traffic over NVLink-C2C with access counting;
//! * local HBM traffic;
//! * and finally a kernel duration: serial fault/migration time (charged
//!   as it happens, so the profiler sees ramps) plus
//!   `max(compute, memory)` for the pipelined part.
//!
//! At [`Kernel::finish`], the access-counter migration driver services up
//! to `counter_budget_per_kernel` pending notifications (paper §2.2.1),
//! migrating the *touched* CPU-resident pages of hot regions to the GPU —
//! the delayed migration behaviour of Fig 10.

use gh_mem::clock::Ns;
use gh_mem::link::Direction;
use gh_mem::params::CostParams;
use gh_mem::phys::Node;
use gh_mem::traffic::KernelTraffic;
use gh_os::VaRange;
use gh_units::{ns_from_f64, widen, Bytes, Lines, Pages, Vpn};

use crate::buffer::{BufKind, Buffer};
use crate::runtime::Runtime;
use crate::uvm::{block_of, block_range};

/// TLB key namespace for system-page-table translations.
pub(crate) fn tlb_key_sys(vpn: Vpn) -> Vpn {
    vpn
}

/// TLB key namespace for GPU-exclusive-page-table translations
/// (2 MiB-grain entries).
pub(crate) fn tlb_key_gpu(vpn: Vpn) -> Vpn {
    Vpn::new(vpn.get() | (1 << 63))
}

/// How many translation requests the GPU keeps in flight; ATS latency is
/// amortized by this factor for streaming access. The H100's many TBUs
/// and deep translation queues hide nearly all miss latency for regular
/// sweeps — the paper's Fig 9 shows the system version's *compute* time
/// to be page-size independent even with 16M live 4 KiB translations.
const XLAT_OUTSTANDING: u64 = 4096;

/// Spans at or below this many system pages take the reference walk:
/// run classification costs more than it saves, and both paths are
/// bit-identical anyway.
const BATCH_MIN_PAGES: u64 = 4;

/// Σ over the pages of `[x0, x1)` of `ceil(portion / line)`, portions
/// split on the `spt` page grid — the exact per-page cacheline count the
/// reference walk feeds the access counters, computed without walking.
fn lines_per_page_sum(x0: u64, x1: u64, spt: u64, line: u64) -> u64 {
    let first_page_end = (x0 / spt + 1) * spt;
    if x1 <= first_page_end {
        return (x1 - x0).div_ceil(line);
    }
    let mut sum = (first_page_end - x0).div_ceil(line);
    let full = (x1 - first_page_end) / spt;
    sum = sum.saturating_add(full.saturating_mul(spt / line));
    let tail = (x1 - first_page_end) % spt;
    if tail > 0 {
        sum = sum.saturating_add(tail.div_ceil(line));
    }
    sum
}

/// Per-buffer traffic attribution within one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferTraffic {
    /// Buffer tag (from allocation).
    pub tag: String,
    /// Remote NVLink-C2C bytes (read + write) this buffer caused.
    pub c2c: u64,
    /// Local HBM bytes this buffer caused.
    pub hbm: u64,
}

/// Result of a finished kernel.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Total kernel duration in virtual ns (launch overhead excluded,
    /// fault/migration service included).
    pub time: Ns,
    /// Traffic and event counts.
    pub traffic: KernelTraffic,
    /// Traffic attribution per buffer, sorted by remote bytes (the
    /// "top talkers" a tuning session looks for first).
    pub by_buffer: Vec<BufferTraffic>,
}

/// Per-buffer byte attribution accumulator (remote vs. local).
#[derive(Debug, Clone, Copy, Default)]
struct BufBytes {
    c2c: u64,
    hbm: u64,
}

/// Remote cachelines of consecutive sparse spans on one system page,
/// not yet fed to the access counters.
#[derive(Debug, Clone, Copy)]
struct CounterLines {
    vpn: Vpn,
    region: u64,
    lines: u64,
}

/// An in-flight kernel recording.
#[derive(Debug)]
pub struct Kernel<'r> {
    rt: &'r mut Runtime,
    name: String,
    start: Ns,
    compute_units: u64,
    hbm_stream: u64,
    hbm_random: u64,
    c2c_read_lines: Lines,
    c2c_write_lines: Lines,
    c2c_read_lines_rand: Lines,
    c2c_write_lines_rand: Lines,
    xlat_misses: u64,
    t: KernelTraffic,
    /// Per-buffer byte attribution.
    by_buffer: std::collections::BTreeMap<u32, BufBytes>,
    /// GPU L2 model for irregular remote accesses: a line fetched once
    /// this kernel is served from cache on re-touch.
    l2: gh_mem::SetCache,
    finished: bool,
    /// Host-time profiling span covering launch → finish (gh-perf;
    /// no-op guard when profiling is off).
    _perf_span: gh_perf::SpanGuard,
}

impl<'r> Kernel<'r> {
    pub(crate) fn new(rt: &'r mut Runtime, name: &str) -> Self {
        rt.uvm.migrated_this_kernel.clear();
        let perf_span = rt.session.perf.span(&format!("kernel:{name}"));
        let start = rt.now();
        // The L2 model's slot array is megabytes; building it fresh per
        // launch dominated launch cost on the host. The batched path
        // revives the runtime's parked instance with an O(1) reset
        // (observationally identical to a fresh cache — see
        // `SetCache::reset`); the reference walk keeps the original
        // fresh allocation.
        let fresh_l2 = |rt: &Runtime| {
            gh_mem::SetCache::new(
                Bytes::new(rt.params.gpu_l2_bytes),
                Bytes::new(rt.params.gpu_cacheline),
                16,
            )
        };
        let l2 = if rt.session.opts.access_ref {
            fresh_l2(rt)
        } else if let Some(mut parked) = rt.l2_pool.take() {
            parked.reset();
            parked
        } else {
            fresh_l2(rt)
        };
        Self {
            rt,
            name: name.to_string(),
            start,
            compute_units: 0,
            hbm_stream: 0,
            hbm_random: 0,
            c2c_read_lines: Lines::ZERO,
            c2c_write_lines: Lines::ZERO,
            c2c_read_lines_rand: Lines::ZERO,
            c2c_write_lines_rand: Lines::ZERO,
            xlat_misses: 0,
            t: KernelTraffic::default(),
            by_buffer: std::collections::BTreeMap::new(),
            l2,
            finished: false,
            _perf_span: perf_span,
        }
    }

    /// Declares `units` of compute work (≈ simple arithmetic ops across
    /// all threads). Overlapped with memory traffic at finish.
    pub fn compute(&mut self, units: u64) {
        self.compute_units += units;
    }

    /// Dense streaming read of `[off, off+len)`.
    pub fn read(&mut self, buf: &Buffer, off: u64, len: u64) {
        self.span(buf, off, len, false, false);
    }

    /// Dense streaming write.
    pub fn write(&mut self, buf: &Buffer, off: u64, len: u64) {
        self.span(buf, off, len, true, false);
    }

    /// Strided access: `count` segments of `seg_len` bytes, `stride`
    /// bytes apart, starting at `off`. Random-access efficiency applies.
    pub fn read_strided(&mut self, buf: &Buffer, off: u64, seg_len: u64, stride: u64, count: u64) {
        self.strided(buf, off, seg_len, stride, count, false);
    }

    /// Strided write; see [`Kernel::read_strided`].
    pub fn write_strided(&mut self, buf: &Buffer, off: u64, seg_len: u64, stride: u64, count: u64) {
        self.strided(buf, off, seg_len, stride, count, true);
    }

    fn strided(
        &mut self,
        buf: &Buffer,
        off: u64,
        seg_len: u64,
        stride: u64,
        count: u64,
        write: bool,
    ) {
        assert!(stride > 0, "stride must be positive");
        self.sparse(
            buf,
            write,
            (0..count).map(|i| (off + i * stride, seg_len, true)),
        );
    }

    /// 2-D sub-grid read: `rows` rows of `row_bytes`, `pitch` bytes
    /// apart (the `cudaMemcpy2D` addressing convention). Dense within
    /// rows; the stride classifies it as irregular when rows are narrow
    /// relative to the pitch.
    pub fn read_2d(&mut self, buf: &Buffer, off: u64, row_bytes: Bytes, pitch: u64, rows: u64) {
        let row = row_bytes.get();
        if row == pitch {
            self.read(buf, off, row * rows);
        } else {
            self.read_strided(buf, off, row, pitch, rows);
        }
    }

    /// 2-D sub-grid write; see [`Kernel::read_2d`].
    pub fn write_2d(&mut self, buf: &Buffer, off: u64, row_bytes: Bytes, pitch: u64, rows: u64) {
        let row = row_bytes.get();
        if row == pitch {
            self.write(buf, off, row * rows);
        } else {
            self.write_strided(buf, off, row, pitch, rows);
        }
    }

    /// Irregular gather: reads `bytes_each` at each byte offset.
    pub fn gather_read<I: IntoIterator<Item = u64>>(
        &mut self,
        buf: &Buffer,
        offsets: I,
        bytes_each: Bytes,
    ) {
        let len = bytes_each.get();
        self.sparse(buf, false, offsets.into_iter().map(|off| (off, len, true)));
    }

    /// Irregular scatter: writes `bytes_each` at each byte offset.
    pub fn scatter_write<I: IntoIterator<Item = u64>>(
        &mut self,
        buf: &Buffer,
        offsets: I,
        bytes_each: Bytes,
    ) {
        let len = bytes_each.get();
        self.sparse(buf, true, offsets.into_iter().map(|off| (off, len, true)));
    }

    /// Meters a list of `(off, len, random)` spans of one buffer, all
    /// reads or all writes. Exactly equivalent to metering each span on
    /// its own, in order — same traffic, TLB and L2 state, counters,
    /// virtual time and trace events — but the classification cost is
    /// paid once per *settled* system page or managed block (see the
    /// `settled` module) instead of once per span: the first span on a
    /// unit takes the full access path, later ones only charge the TLB
    /// lookup, their traffic, dirty bits and (managed) LRU recency.
    /// Per-buffer attribution is updated once per call.
    pub fn sparse<I>(&mut self, buf: &Buffer, write: bool, spans: I)
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        if self.rt.session.opts.access_ref {
            for (off, len, random) in spans {
                self.span(buf, off, len, write, random);
            }
            return;
        }
        let before = self.moved();
        let touched = match buf.kind {
            BufKind::Device => self.each_span(buf, spans, |k, span, random| {
                k.span_device(span, write, random)
            }),
            BufKind::Pinned | BufKind::System | BufKind::Managed if self.rt.params.unified_pool => {
                self.sparse_system(buf, write, spans)
            }
            BufKind::Pinned => self.each_span(buf, spans, |k, span, random| {
                k.span_pinned(span, write, random)
            }),
            BufKind::System => self.sparse_system(buf, write, spans),
            BufKind::Managed => self.sparse_managed(buf, write, spans),
        };
        if touched {
            self.attribute(buf.id(), before);
        }
    }

    /// Runs `f` on every non-empty span; returns whether there was one.
    fn each_span<I, F>(&mut self, buf: &Buffer, spans: I, mut f: F) -> bool
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
        F: FnMut(&mut Self, VaRange, bool),
    {
        let mut touched = false;
        for (off, len, random) in spans {
            if len == 0 {
                continue;
            }
            assert!(off + len <= buf.len(), "kernel access out of range");
            touched = true;
            f(self, buf.range.slice(off, len), random);
        }
        touched
    }

    /// Sparse spans over system memory (or any host-visible kind in a
    /// unified pool). A single-page span on a settled page charges what
    /// the per-page walk charges for a populated page — TLB lookup,
    /// local or remote traffic, access-counter lines, dirty bit — without
    /// the page-table probes. Counter lines are summed while consecutive
    /// spans stay on one page, and recorded before the next span that
    /// could emit a trace event; a group's later TLB lookups hit, so no
    /// event can fall between.
    fn sparse_system<I>(&mut self, buf: &Buffer, write: bool, spans: I) -> bool
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        let unified = self.rt.params.unified_pool;
        let mut memo = self.rt.take_settled(buf);
        let mut pending: Option<CounterLines> = None;
        let mut touched = false;
        for (off, len, random) in spans {
            if len == 0 {
                continue;
            }
            assert!(off + len <= buf.len(), "kernel access out of range");
            touched = true;
            let addr = buf.range.addr + off;
            let vpn = Vpn::new(addr / spt);
            let one_page = (addr + len - 1) / spt == vpn.get();
            let Some(node) = memo.page(vpn).filter(|_| one_page) else {
                self.record_lines(&mut pending);
                let span = buf.range.slice(off, len);
                self.span_system(buf.id(), buf.range, span, write, random);
                memo.validate(self.rt.settled_stamp());
                if one_page {
                    if let Some(pte) = self.rt.os.system_pt.translate(vpn) {
                        memo.settle_page(vpn, pte.node, pte.dirty);
                    }
                }
                continue;
            };
            if pending.is_some_and(|p| p.vpn != vpn) {
                self.record_lines(&mut pending);
            }
            self.translate(tlb_key_sys(vpn));
            match node {
                Node::Cpu if !unified => {
                    self.account_remote(addr, len, write, random);
                    if self.rt.counters.enabled() {
                        // A pending group is on this page (flushed above
                        // otherwise), and a page never straddles counter
                        // regions (`CostParams::validate`).
                        let lines = len.div_ceil(line);
                        match &mut pending {
                            Some(p) => p.lines += lines,
                            None => {
                                let region = self.rt.counters.region_of(addr);
                                pending = Some(CounterLines { vpn, region, lines });
                            }
                        }
                    }
                }
                _ => self.account_local(len, write, random),
            }
            if write && memo.dirty(vpn) {
                self.rt.os.system_pt.mark_dirty(vpn);
            }
        }
        self.record_lines(&mut pending);
        self.rt.put_settled(buf.id(), memo);
        touched
    }

    /// Feeds summed remote lines of one page to the access counters,
    /// exactly as the per-page walk's per-span records would.
    fn record_lines(&mut self, pending: &mut Option<CounterLines>) {
        let Some(p) = pending.take() else {
            return;
        };
        self.rt
            .remote_touched
            .entry(p.region)
            .or_default()
            .insert(p.vpn);
        if let Some(n) = self.rt.counters.record(p.region, p.lines) {
            self.rt.pending_notifs.push_back(n.region);
            self.t.notifications = self.t.notifications.saturating_add(1);
        }
    }

    /// Sparse spans over managed memory. A single-block span on a
    /// settled block charges what [`Kernel::span_managed`] charges for a
    /// wholly GPU-resident block — local traffic, the block's GPU TLB
    /// entry, LRU recency, dirty bits — without the VMA, pin and
    /// residency probes.
    fn sparse_managed<I>(&mut self, buf: &Buffer, write: bool, spans: I) -> bool
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        let mut memo = self.rt.take_settled(buf);
        let mut touched = false;
        for (off, len, random) in spans {
            if len == 0 {
                continue;
            }
            assert!(off + len <= buf.len(), "kernel access out of range");
            touched = true;
            let addr = buf.range.addr + off;
            let block = block_of(addr);
            let one_block = block_of(addr + len - 1) == block;
            if one_block && memo.block(block) {
                self.account_local(len, write, random);
                self.translate(tlb_key_gpu(Vpn::new(block)));
                self.rt.uvm.touch_lru(block);
                if write {
                    for vpn in self.rt.os.system_pt.vpn_range(addr, len) {
                        if memo.dirty(vpn) {
                            self.rt.os.system_pt.mark_dirty(vpn);
                        }
                    }
                }
                continue;
            }
            self.span_managed(buf.range, buf.range.slice(off, len), write, random);
            memo.validate(self.rt.settled_stamp());
            if one_block && self.rt.managed_block_settled(block, buf.range) {
                memo.settle_block(block);
            }
        }
        self.rt.put_settled(buf.id(), memo);
        touched
    }

    // ------------------------------------------------------------------

    /// Remote and local bytes metered so far, for per-buffer attribution.
    fn moved(&self) -> BufBytes {
        BufBytes {
            c2c: self.t.c2c_read + self.t.c2c_write,
            hbm: self.t.hbm_read + self.t.hbm_write,
        }
    }

    /// Charges the bytes metered since `before` to buffer `id`.
    fn attribute(&mut self, id: u32, before: BufBytes) {
        let now = self.moved();
        let entry = self.by_buffer.entry(id).or_default();
        entry.c2c = entry.c2c.saturating_add(now.c2c.saturating_sub(before.c2c));
        entry.hbm = entry.hbm.saturating_add(now.hbm.saturating_sub(before.hbm));
    }

    fn span(&mut self, buf: &Buffer, off: u64, len: u64, write: bool, random: bool) {
        if len == 0 {
            return;
        }
        assert!(off + len <= buf.len(), "kernel access out of range");
        let span = buf.range.slice(off, len);
        let before = self.moved();
        match buf.kind {
            BufKind::Device => self.span_device(span, write, random),
            // In a unified pool every host-visible kind is just mapped
            // shared memory: no pinned-remote path, no UVM migration.
            BufKind::Pinned | BufKind::System | BufKind::Managed if self.rt.params.unified_pool => {
                self.span_system(buf.id(), buf.range, span, write, random)
            }
            BufKind::Pinned => self.span_pinned(span, write, random),
            BufKind::System => self.span_system(buf.id(), buf.range, span, write, random),
            BufKind::Managed => self.span_managed(buf.range, span, write, random),
        }
        self.attribute(buf.id(), before);
    }

    fn account_local(&mut self, bytes: u64, write: bool, random: bool) {
        if random {
            self.hbm_random = self.hbm_random.saturating_add(bytes);
        } else {
            self.hbm_stream = self.hbm_stream.saturating_add(bytes);
        }
        if write {
            self.t.hbm_write = self.t.hbm_write.saturating_add(bytes);
        } else {
            self.t.hbm_read = self.t.hbm_read.saturating_add(bytes);
        }
        self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
    }

    fn account_remote(&mut self, addr: u64, bytes: u64, write: bool, random: bool) {
        let line = self.rt.params.gpu_cacheline;
        // GPU L2 model for small irregular touches: a line fetched once
        // this kernel is served from cache on re-touch. Dense streams
        // bypass (no reuse; streaming loads are marked non-allocating).
        if random && bytes < 4 * line {
            let missed = self.l2.access_range(addr, Bytes::new(bytes.max(1)));
            if missed.is_zero() {
                self.t.l1l2 = self.t.l1l2.saturating_add(bytes); // pure cache hit
                return;
            }
            let miss_bytes = missed.bytes(Bytes::new(line)).get();
            match write {
                false => {
                    self.c2c_read_lines_rand += missed;
                    self.t.c2c_read = self.t.c2c_read.saturating_add(miss_bytes);
                }
                true => {
                    self.c2c_write_lines_rand += missed;
                    self.t.c2c_write = self.t.c2c_write.saturating_add(miss_bytes);
                }
            }
            self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
            return;
        }
        let lines = Lines::new(bytes.div_ceil(line));
        match (write, random) {
            (false, false) => self.c2c_read_lines += lines,
            (false, true) => self.c2c_read_lines_rand += lines,
            (true, false) => self.c2c_write_lines += lines,
            (true, true) => self.c2c_write_lines_rand += lines,
        }
        let line_bytes = lines.bytes(Bytes::new(line)).get();
        if write {
            self.t.c2c_write = self.t.c2c_write.saturating_add(line_bytes);
        } else {
            self.t.c2c_read = self.t.c2c_read.saturating_add(line_bytes);
        }
        self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
    }

    /// GPU TLB lookup; charges nothing directly, counts misses (latency is
    /// amortized at finish).
    fn translate(&mut self, key: Vpn) {
        if !self.rt.gpu_tlb.lookup(key) {
            self.rt.gpu_tlb.fill(key);
            self.xlat_misses = self.xlat_misses.saturating_add(1);
            self.t.tlb_misses = self.t.tlb_misses.saturating_add(1);
        }
    }

    /// Batched TLB walk over contiguous keys; charges miss counts per run.
    /// Bit-identical to per-key [`Kernel::translate`] calls in key order.
    fn translate_range(&mut self, keys: gh_units::VpnRange) {
        let misses = self.rt.gpu_tlb.lookup_range(keys);
        self.xlat_misses = self.xlat_misses.saturating_add(misses);
        self.t.tlb_misses = self.t.tlb_misses.saturating_add(misses);
    }

    /// TLB key range covering the system pages of `[a0, a1)`.
    fn sys_keys(&self, a0: u64, a1: u64) -> gh_units::VpnRange {
        let first = self.rt.os.system_pt.vpn(a0);
        let last = self.rt.os.system_pt.vpn(a1 - 1);
        gh_units::VpnRange::new(tlb_key_sys(first), Vpn::new(tlb_key_sys(last).get() + 1))
    }

    fn span_device(&mut self, span: VaRange, write: bool, random: bool) {
        let gp = self.rt.params.gpu_page_size;
        if self.rt.session.opts.access_ref {
            let mut addr = span.addr;
            while addr < span.end() {
                let page_end = (addr / gp + 1) * gp;
                let portion = page_end.min(span.end()) - addr;
                let vpn = Vpn::new(addr / gp);
                debug_assert!(
                    self.rt.gpu_pt.is_populated(vpn),
                    "access to unmapped device page"
                );
                self.translate(tlb_key_gpu(vpn));
                self.account_local(portion, write, random);
                addr = page_end;
            }
            return;
        }
        // Batched: one TLB walk per page (keys are contiguous because
        // `tlb_key_gpu` only sets a high namespace bit), traffic summed —
        // per-page portions are linear in bytes, so the sums are identical
        // to the per-page walk.
        let first = Vpn::new(span.addr / gp);
        let last = Vpn::new((span.end() - 1) / gp);
        #[cfg(debug_assertions)]
        for v in first.get()..=last.get() {
            debug_assert!(
                self.rt.gpu_pt.is_populated(Vpn::new(v)),
                "access to unmapped device page"
            );
        }
        self.translate_range(gh_units::VpnRange::new(
            tlb_key_gpu(first),
            Vpn::new(tlb_key_gpu(last).get() + 1),
        ));
        self.account_local(span.len, write, random);
    }

    fn span_pinned(&mut self, span: VaRange, write: bool, random: bool) {
        // Pinned memory is always CPU-resident: pure remote traffic.
        let spt = self.rt.os.system_pt.page_size();
        let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
        if self.rt.session.opts.access_ref {
            for vpn in vpns {
                self.translate(tlb_key_sys(vpn));
                if write {
                    self.rt.os.system_pt.mark_dirty(vpn);
                }
            }
        } else {
            // `mark_dirty` cannot affect the TLB, so hoisting the dirty
            // sweep out of the translate loop preserves state exactly.
            self.translate_range(self.sys_keys(span.addr, span.end()));
            if write {
                self.rt.os.system_pt.mark_dirty_range(vpns);
            }
        }
        self.account_remote(span.addr, span.len.max(spt.min(span.len)), write, random);
    }

    fn span_system(
        &mut self,
        buf_id: u32,
        buf_range: VaRange,
        span: VaRange,
        write: bool,
        random: bool,
    ) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
        // The batched core assumes line-aligned page boundaries (so
        // per-page cacheline counts sum exactly), full pages never taking
        // the small-irregular L2 path, and page-aligned counter regions
        // (so counter chunks never split a page). Anything else — and
        // tiny spans, where batch setup costs more than it saves — takes
        // the reference walk; both paths are bit-identical.
        let batchable = !self.rt.session.opts.access_ref
            && vpns.count().get() > BATCH_MIN_PAGES
            && spt.is_multiple_of(line)
            && spt >= 4 * line
            && self.rt.params.counter_region.is_multiple_of(spt);
        if !batchable {
            let (_, fault_cost) =
                self.span_system_pages(span.addr, span.end(), write, random, 0, false);
            if fault_cost > 0 {
                self.rt.tick(fault_cost);
            }
            return;
        }
        let runs = self.rt.classify_span_cached(buf_id, buf_range, vpns);
        self.rt
            .session
            .perf
            .count(gh_perf::Ctr::BatchRuns, widen(runs.len()));
        let mut fault_cost: Ns = 0;
        for (vr, node) in runs {
            // Clip the run (vpn-granular) to the accessed byte span.
            let a0 = span.addr.max(vr.start.get() * spt);
            let a1 = span.end().min(vr.end.get() * spt);
            if a0 >= a1 {
                continue;
            }
            match node {
                Some(node) => {
                    let mut a = a0;
                    if fault_cost > 0 {
                        // Pending fault cost from an earlier run: the
                        // 256 KiB flush ticks must land at the exact
                        // virtual times the reference walk produces, so
                        // walk per page until the flush happens.
                        let (resume, fc) =
                            self.span_system_pages(a, a1, write, random, fault_cost, true);
                        a = resume;
                        fault_cost = fc;
                    }
                    if a < a1 {
                        self.span_system_resident(a, a1, node, write, random);
                    }
                }
                // Unpopulated pages: fault service is inherently
                // per-page (SMMU + OS cost accrual + flush cadence).
                None => {
                    let (_, fc) = self.span_system_pages(a0, a1, write, random, fault_cost, false);
                    fault_cost = fc;
                }
            }
        }
        if fault_cost > 0 {
            self.rt.tick(fault_cost);
        }
    }

    /// The per-page reference walk over `[addr, end)` of system memory —
    /// the original access path, retained as the behavioural baseline the
    /// batched core is differentially tested against. Returns the resume
    /// address and still-pending fault cost. With `stop_after_flush`, the
    /// walk returns right after a 256 KiB flush tick zeroes the pending
    /// cost, so a batched caller can take over at the same virtual time.
    fn span_system_pages(
        &mut self,
        mut addr: u64,
        end: u64,
        write: bool,
        random: bool,
        mut fault_cost: Ns,
        stop_after_flush: bool,
    ) -> (u64, Ns) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        while addr < end {
            let page_end = (addr / spt + 1) * spt;
            let portion = page_end.min(end) - addr;
            let vpn = self.rt.os.system_pt.vpn(addr);
            self.translate(tlb_key_sys(vpn));
            let node = match self.rt.os.system_pt.translate(vpn) {
                Some(pte) => pte.node,
                None => {
                    // GPU first touch of a system page: SMMU raises a
                    // fault, the OS services it on the CPU (§5.1.2).
                    self.rt.smmu.raise_fault();
                    let o = self.rt.os.ats_fault(vpn, &mut self.rt.phys);
                    fault_cost = fault_cost.saturating_add(o.cost);
                    self.t.ats_faults = self.t.ats_faults.saturating_add(1);
                    o.placed
                }
            };
            match node {
                Node::Gpu => self.account_local(portion, write, random),
                // Unified pool: "CPU-resident" is attribution only — the
                // page lives in the same HBM the GPU reads at full speed,
                // and there are no access counters to trip.
                Node::Cpu if self.rt.params.unified_pool => {
                    self.account_local(portion, write, random)
                }
                Node::Cpu => {
                    self.account_remote(addr, portion, write, random);
                    // Hardware access counters see remote GPU accesses.
                    let region = self.rt.counters.region_of(addr);
                    let lines = portion.div_ceil(line);
                    if self.rt.counters.enabled() {
                        self.rt
                            .remote_touched
                            .entry(region)
                            .or_default()
                            .insert(vpn);
                        if let Some(n) = self.rt.counters.record(region, lines) {
                            self.rt.pending_notifs.push_back(n.region);
                            self.t.notifications = self.t.notifications.saturating_add(1);
                        }
                    }
                }
            }
            if write {
                self.rt.os.system_pt.mark_dirty(vpn);
            }
            addr = page_end;
            // Serial fault service is visible to the profiler as it
            // happens: flush accumulated cost every 256 KiB of pages so
            // init ramps resolve in the memory profile.
            if fault_cost > 0 && addr.is_multiple_of(256 * 1024) {
                self.rt.tick(fault_cost);
                fault_cost = 0;
                if stop_after_flush {
                    return (addr, 0);
                }
            }
        }
        (addr, fault_cost)
    }

    /// Batched accounting for a resident run `[a0, a1)` whose pages all
    /// live on `node`. Charges exactly what the reference walk charges
    /// page by page: TLB walks in key order, linear traffic sums, the
    /// small-irregular L2 path only for the head/tail partial pages
    /// (full pages never take it under the `spt >= 4 * line` batch
    /// guard), and access-counter records per region chunk in address
    /// order with per-page-exact cacheline sums.
    fn span_system_resident(&mut self, a0: u64, a1: u64, node: Node, write: bool, random: bool) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        match node {
            Node::Gpu => {
                self.translate_range(self.sys_keys(a0, a1));
                self.account_local(a1 - a0, write, random);
            }
            Node::Cpu if self.rt.params.unified_pool => {
                self.translate_range(self.sys_keys(a0, a1));
                self.account_local(a1 - a0, write, random);
            }
            Node::Cpu => {
                // Under tracing with counters armed, CounterNotify events
                // must interleave with TlbEvict events mid-run exactly as
                // the per-page walk emits them — fall back.
                if self.rt.counters.enabled() && self.rt.session.bus.is_on() {
                    let _ = self.span_system_pages(a0, a1, write, random, 0, false);
                    return; // dirty bits handled per page above
                }
                self.translate_range(self.sys_keys(a0, a1));
                // Head partial / interior full pages / tail partial:
                // `ceil(total/line)` differs from the per-page sum, so the
                // split must mirror the page grid.
                let mut p = a0;
                let head_end = (a0 / spt + 1) * spt;
                if !a0.is_multiple_of(spt) {
                    self.account_remote(a0, head_end.min(a1) - a0, write, random);
                    p = head_end;
                }
                if p < a1 {
                    let full = (a1 - p) / spt;
                    if full > 0 {
                        self.account_remote_full_pages(full, write, random);
                        p += full * spt;
                    }
                    if p < a1 {
                        self.account_remote(p, a1 - p, write, random);
                    }
                }
                if self.rt.counters.enabled() {
                    let rsz = self.rt.params.counter_region;
                    let mut c = a0;
                    while c < a1 {
                        let c_end = ((c / rsz + 1) * rsz).min(a1);
                        let region = self.rt.counters.region_of(c);
                        let chunk_vpns = self.rt.os.system_pt.vpn_range(c, c_end - c);
                        let touched = self.rt.remote_touched.entry(region).or_default();
                        for vpn in chunk_vpns {
                            touched.insert(vpn);
                        }
                        let lines = lines_per_page_sum(c, c_end, spt, line);
                        if let Some(n) = self.rt.counters.record(region, lines) {
                            self.rt.pending_notifs.push_back(n.region);
                            self.t.notifications = self.t.notifications.saturating_add(1);
                        }
                        c = c_end;
                    }
                }
            }
        }
        if write {
            let vpns = self.rt.os.system_pt.vpn_range(a0, a1 - a0);
            self.rt.os.system_pt.mark_dirty_range(vpns);
        }
    }

    /// Remote accounting for `pages` full system pages in one shot:
    /// identical sums to `pages` reference calls of
    /// `account_remote(_, spt, ..)` because full pages never take the
    /// small-irregular L2 path (`spt >= 4 * line` batch guard) and
    /// `spt % line == 0` makes the per-page line rounding exact.
    fn account_remote_full_pages(&mut self, pages: u64, write: bool, random: bool) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        let lines = Lines::new(pages.saturating_mul(spt / line));
        match (write, random) {
            (false, false) => self.c2c_read_lines += lines,
            (false, true) => self.c2c_read_lines_rand += lines,
            (true, false) => self.c2c_write_lines += lines,
            (true, true) => self.c2c_write_lines_rand += lines,
        }
        let bytes = pages.saturating_mul(spt);
        if write {
            self.t.c2c_write = self.t.c2c_write.saturating_add(bytes);
        } else {
            self.t.c2c_read = self.t.c2c_read.saturating_add(bytes);
        }
        self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
    }

    fn span_managed(&mut self, buf_range: VaRange, span: VaRange, write: bool, random: bool) {
        let spt = self.rt.os.system_pt.page_size();
        // Thrash-pinned or ReadMostly/CPU-preferred-advised allocations
        // are served entirely by coherent remote access (no faults, no
        // migration attempts) once their pages exist.
        if self.rt.migration_advised_off(buf_range.addr) {
            let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
            let cpu = self.rt.os.system_pt.count_resident_in(vpns, Node::Cpu);
            let gpu = self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
            if cpu + gpu == vpns.count() {
                if self.rt.session.opts.access_ref {
                    for vpn in vpns {
                        self.translate(tlb_key_sys(vpn));
                        if write {
                            self.rt.os.system_pt.mark_dirty(vpn);
                        }
                    }
                } else {
                    self.translate_range(self.sys_keys(span.addr, span.end()));
                    if write {
                        self.rt.os.system_pt.mark_dirty_range(vpns);
                    }
                }
                let page = self.rt.os.system_pt.page();
                let gpu_bytes = (gpu * page).get().min(span.len);
                if gpu_bytes > 0 {
                    self.account_local(gpu_bytes, write, random);
                }
                if span.len > gpu_bytes {
                    self.account_remote(span.addr, span.len - gpu_bytes, write, random);
                }
                return;
            }
        }
        if self.rt.uvm.is_pinned_cpu(buf_range) {
            if self.rt.session.opts.access_ref {
                for vpn in self.rt.os.system_pt.vpn_range(span.addr, span.len) {
                    self.translate(tlb_key_sys(vpn));
                    if write {
                        self.rt.os.system_pt.mark_dirty(vpn);
                    }
                }
            } else {
                self.translate_range(self.sys_keys(span.addr, span.end()));
                if write {
                    let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
                    self.rt.os.system_pt.mark_dirty_range(vpns);
                }
            }
            self.account_remote(span.addr, span.len, write, random);
            return;
        }
        let first = block_of(span.addr);
        let last = block_of(span.end() - 1);
        for block in first..=last {
            let clip = block_range(block, span);
            if clip.len == 0 {
                continue;
            }
            let vpns = self.rt.os.system_pt.vpn_range(clip.addr, clip.len);
            let n_pages = vpns.count();
            let populated = self.rt.os.system_pt.count_resident_in(vpns, Node::Cpu)
                + self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
            if populated < n_pages {
                // GPU first touch: block-granularity population, directly
                // in GPU memory — the *fast* managed init path (§5.1.2).
                let (cost, on_gpu, _) = self.rt.uvm_first_touch_block(block, buf_range);
                self.rt.tick(cost);
                self.t.gpu_faults = self.t.gpu_faults.saturating_add(1);
                self.rt.session.perf.count(gh_perf::Ctr::Faults, 1);
                self.t.bytes_migrated_in = self.t.bytes_migrated_in.saturating_add(0); // population, not migration
                let _ = on_gpu;
                if self.rt.session.bus.is_on() {
                    self.rt.session.bus.emit(gh_trace::Event::PageFault {
                        kind: gh_trace::FaultKind::Gpu,
                        va: block * crate::uvm::BLOCK,
                        cost,
                    });
                    self.rt.session.bus.count("uvm.gpu_faults", 1);
                    self.rt.session.bus.observe("fault.cost_ns", cost);
                }
            }
            let cpu_pages = self.rt.os.system_pt.count_resident_in(vpns, Node::Cpu);
            if !cpu_pages.is_zero() {
                // Replayable GPU fault → driver migrates the block in
                // (or falls back to remote mapping under self-eviction).
                let fault = self.rt.params.uvm_fault_batch;
                self.rt.tick(fault);
                self.t.gpu_faults = self.t.gpu_faults.saturating_add(1);
                self.rt.session.perf.count(gh_perf::Ctr::Faults, 1);
                if self.rt.session.bus.is_on() {
                    self.rt.session.bus.emit(gh_trace::Event::PageFault {
                        kind: gh_trace::FaultKind::Gpu,
                        va: block * crate::uvm::BLOCK,
                        cost: fault,
                    });
                    self.rt.session.bus.count("uvm.gpu_faults", 1);
                    self.rt.session.bus.observe("fault.cost_ns", fault);
                }
                // Pass the *whole* allocation range: the driver refuses to
                // evict this same allocation to serve its own fault.
                let (cost, migrated) = self.rt.uvm_migrate_block_in(block, buf_range);
                self.rt.tick(cost);
                if migrated > 0 {
                    self.t.pages_migrated_in = self.t.pages_migrated_in.saturating_add(migrated);
                    self.t.bytes_migrated_in =
                        self.t.bytes_migrated_in.saturating_add(migrated * spt);
                    // Speculative sequential prefetch: after two
                    // consecutive migrated blocks, pull the next one in
                    // without waiting for its fault.
                    if self.rt.session.opts.uvm_prefetch
                        && self
                            .rt
                            .uvm
                            .migrated_this_kernel
                            .contains(&(block.wrapping_sub(1)))
                        && block_range(block + 1, buf_range).len > 0
                    {
                        let (pcost, pmigrated) = self.rt.uvm_migrate_block_in(block + 1, buf_range);
                        self.rt.tick(pcost);
                        self.t.pages_migrated_in =
                            self.t.pages_migrated_in.saturating_add(pmigrated);
                        self.t.bytes_migrated_in =
                            self.t.bytes_migrated_in.saturating_add(pmigrated * spt);
                    }
                } else {
                    // Remote mapping: cacheline-grain access to the
                    // CPU-resident pages of this block.
                    let page = self.rt.os.system_pt.page();
                    let remote_bytes = (cpu_pages * page).get().min(clip.len);
                    self.account_remote(clip.addr, remote_bytes, write, random);
                    if self.rt.session.opts.access_ref {
                        for vpn in vpns {
                            self.translate(tlb_key_sys(vpn));
                        }
                    } else {
                        self.translate_range(self.sys_keys(clip.addr, clip.end()));
                    }
                }
            }
            // Whatever is GPU-resident now is read/written locally.
            let gpu_pages = self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
            if !gpu_pages.is_zero() {
                let page = self.rt.os.system_pt.page();
                let local_bytes = (gpu_pages * page).get().min(clip.len);
                self.account_local(local_bytes, write, random);
                self.translate(tlb_key_gpu(Vpn::new(block)));
                self.rt.uvm.touch_lru(block);
            }
            if write {
                if self.rt.session.opts.access_ref {
                    for vpn in vpns {
                        self.rt.os.system_pt.mark_dirty(vpn);
                    }
                } else {
                    self.rt.os.system_pt.mark_dirty_range(vpns);
                }
            }
        }
    }

    /// Ends the kernel: runs the access-counter migration driver, charges
    /// pipelined memory/compute time, records traffic, and returns the
    /// report.
    pub fn finish(mut self) -> KernelReport {
        self.finished = true;
        // Park the L2 model so the next launch revives it with an O(1)
        // reset instead of a fresh multi-megabyte allocation. A
        // zero-capacity stand-in takes its place; no access touches the
        // L2 after this point.
        let line = Bytes::new(self.rt.params.gpu_cacheline);
        let parked = std::mem::replace(&mut self.l2, gh_mem::SetCache::new(Bytes::new(0), line, 1));
        self.rt.l2_pool = Some(parked);
        // --- access-counter migration driver (system memory, §2.2.1) ---
        let budget = self.rt.params.counter_budget_per_kernel;
        let mut serviced = 0;
        while serviced < budget {
            let Some(region) = self.rt.pending_notifs.pop_front() else {
                break;
            };
            serviced = serviced.saturating_add(1);
            let dt = self.drain_notification(region);
            self.rt.tick(dt);
        }

        // Counter aging at the kernel boundary (see
        // AccessCounters::age): sparse traffic does not accumulate
        // across kernels.
        self.rt.counters.age();

        // --- pipelined memory time ---
        let p = &self.rt.params;
        let mut mem: Ns = 0;
        mem += CostParams::transfer_ns(Bytes::new(self.hbm_stream), p.hbm_bw);
        mem += CostParams::transfer_ns(Bytes::new(self.hbm_random), p.hbm_bw * p.hbm_random_eff);
        let line = Bytes::new(p.gpu_cacheline);
        let (s_eff, r_eff) = (p.c2c_stream_eff, p.c2c_random_eff);
        mem += self
            .rt
            .link
            .cacheline_stream_eff(self.c2c_read_lines, line, Direction::H2D, s_eff);
        mem += self
            .rt
            .link
            .cacheline_stream_eff(self.c2c_write_lines, line, Direction::D2H, s_eff);
        mem += self.rt.link.cacheline_stream_eff(
            self.c2c_read_lines_rand,
            line,
            Direction::H2D,
            r_eff,
        );
        mem += self.rt.link.cacheline_stream_eff(
            self.c2c_write_lines_rand,
            line,
            Direction::D2H,
            r_eff,
        );
        mem += self.xlat_misses * p.ats_translate / XLAT_OUTSTANDING;
        let compute = ns_from_f64((self.compute_units as f64 / p.gpu_throughput).ceil());
        self.rt.tick(mem.max(compute));

        let time = self.rt.now() - self.start;
        let name = format!("{}#{}", self.name, self.rt.kernel_seq);
        self.rt.traffic.push(&name, self.t);
        self.rt.kernel_times.push((name.clone(), time));
        self.rt.session.bus.span_closed(&name, "kernel", self.start);
        let mut by_buffer: Vec<BufferTraffic> = self
            .by_buffer
            .iter()
            .map(|(&id, &BufBytes { c2c, hbm })| BufferTraffic {
                tag: self.rt.buffer_tag(id).unwrap_or("<freed>").to_string(),
                c2c,
                hbm,
            })
            .collect();
        by_buffer.sort_by(|a, b| {
            b.c2c
                .cmp(&a.c2c)
                .then(b.hbm.cmp(&a.hbm))
                .then(a.tag.cmp(&b.tag))
        });
        KernelReport {
            name,
            time,
            traffic: self.t,
            by_buffer,
        }
    }

    /// Services one notification: migrate the touched, still-CPU-resident
    /// pages of the hot region to the GPU, up to the driver's DMA depth
    /// (`counter_service_max_pages`). Leftover touched pages stay queued:
    /// the region re-arms and re-fires on further remote access. System
    /// memory never evicts to make room — if the GPU is full the
    /// notification is dropped and the region stays CPU-resident.
    fn drain_notification(&mut self, region: u64) -> Ns {
        let spt = self.rt.os.system_pt.page_size();
        // cudaMemAdvise: ranges advised CPU-preferred or read-mostly are
        // never migrated by the counter engine.
        let region_addr = region * self.rt.params.counter_region;
        if self.rt.migration_advised_off(region_addr) {
            self.rt.remote_touched.remove(&region);
            self.rt.counters.clear(region);
            return 0;
        }
        let touched = match self.rt.remote_touched.get_mut(&region) {
            Some(t) => t,
            None => {
                self.rt.counters.clear(region);
                return 0;
            }
        };
        let cap = self.rt.params.counter_service_max_pages as usize;
        let take: Vec<Vpn> = touched.iter().copied().take(cap).collect();
        for vpn in &take {
            touched.remove(vpn);
        }
        if touched.is_empty() {
            self.rt.remote_touched.remove(&region);
        }
        self.rt.counters.clear(region);
        let movable: Vec<Vpn> = take
            .into_iter()
            .filter(|&vpn| {
                self.rt
                    .os
                    .system_pt
                    .translate(vpn)
                    .is_some_and(|pte| pte.node == Node::Cpu)
            })
            .collect();
        let page = self.rt.os.system_pt.page();
        let pages = Pages::new(widen(movable.len()));
        let bytes = pages * page;
        if bytes.is_zero() || self.rt.phys.free(Node::Gpu) < bytes {
            return 0;
        }
        for &vpn in &movable {
            self.rt.move_page(vpn, Node::Gpu);
        }
        self.t.pages_migrated_in = self.t.pages_migrated_in.saturating_add(pages.get());
        self.t.bytes_migrated_in = self.t.bytes_migrated_in.saturating_add(bytes.get());
        if self.rt.session.bus.is_on() {
            self.rt.session.bus.emit(gh_trace::Event::Migration {
                engine: gh_trace::Engine::Counter,
                dir: gh_trace::Dir::H2D,
                pages: pages.get(),
                bytes: bytes.get(),
            });
            self.rt
                .session
                .bus
                .count("counters.pages_migrated_in", pages.get());
            self.rt
                .session
                .bus
                .count("counters.bytes_migrated_in", bytes.get());
            self.rt.session.bus.observe("migration.bytes", bytes.get());
        }
        let transfer = self.rt.link.bulk(bytes, Direction::H2D);
        // In-flight stall (see CostParams::counter_stall_factor): grows
        // with the migration-unit (system page) size.
        let stall = ns_from_f64(
            transfer as f64
                * ((spt as f64 / 4096.0) - 1.0).max(0.0)
                * self.rt.params.counter_stall_factor,
        );
        self.rt.params.counter_region_fixed
            + pages
                .get()
                .saturating_mul(self.rt.params.counter_migrate_fixed)
            + transfer
            + stall
    }
}

impl Drop for Kernel<'_> {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            panic!("kernel '{}' dropped without finish()", self.name); // gh-audit: allow(no-unwrap-in-lib) -- deliberate drop-guard trap for kernels never finish()ed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeOptions;
    use gh_mem::params::{CostParams, KIB, MIB};

    fn rt() -> Runtime {
        Runtime::new(CostParams::default(), RuntimeOptions::default())
    }

    fn rt_nomig() -> Runtime {
        Runtime::new(
            CostParams::default(),
            RuntimeOptions {
                auto_migration: false,
                ..Default::default()
            },
        )
    }

    #[test]
    fn device_access_is_local_hbm() {
        let mut r = rt();
        let d = r.cuda_malloc(Bytes::new(4 * MIB), "d").unwrap();
        let mut k = r.launch("k");
        k.read(&d, 0, 4 * MIB);
        k.write(&d, 0, MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.hbm_read, 4 * MIB);
        assert_eq!(rep.traffic.hbm_write, MIB);
        assert_eq!(rep.traffic.c2c_read, 0);
        assert_eq!(rep.traffic.l1l2, 5 * MIB);
    }

    #[test]
    fn system_cpu_resident_access_goes_over_c2c_without_migration() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(4 * MIB), "s");
        r.cpu_write(&b, 0, 4 * MIB);
        let rss_before = r.rss();
        let mut k = r.launch("k");
        k.read(&b, 0, 4 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.c2c_read, 4 * MIB);
        assert_eq!(rep.traffic.hbm_read, 0);
        assert_eq!(rep.traffic.ats_faults, 0);
        assert_eq!(r.rss(), rss_before, "no migration with counters off");
    }

    #[test]
    fn system_gpu_first_touch_raises_ats_faults() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(MIB), "s");
        let pages = MIB / r.params().system_page_size;
        let mut k = r.launch("init");
        k.write(&b, 0, MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.ats_faults, pages);
        assert_eq!(r.os().ats_faults(), pages);
        // First touch came from the GPU → pages live in HBM.
        assert_eq!(rep.traffic.hbm_write, MIB);
        assert_eq!(r.gpu_used() - r.params().gpu_driver_baseline, MIB);
    }

    #[test]
    fn system_gpu_init_slower_than_managed_gpu_init() {
        // The §5.1.2 effect: GPU-side first touch of system memory is
        // far more expensive than managed memory's block population.
        let sz = 16 * MIB;
        let mut rs = rt_nomig();
        let bs = rs.malloc_system(Bytes::new(sz), "s");
        let t0 = rs.now();
        let mut k = rs.launch("init");
        k.write(&bs, 0, sz);
        k.finish();
        let system_time = rs.now() - t0;

        let mut rm = rt_nomig();
        let bm = rm.cuda_malloc_managed(Bytes::new(sz), "m");
        let t0 = rm.now();
        let mut k = rm.launch("init");
        k.write(&bm, 0, sz);
        k.finish();
        let managed_time = rm.now() - t0;
        assert!(
            system_time > managed_time * 3,
            "system {system_time} vs managed {managed_time}"
        );
    }

    #[test]
    fn managed_cpu_resident_pages_migrate_on_gpu_access() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(8 * MIB), "m");
        r.cpu_write(&b, 0, 8 * MIB);
        assert_eq!(r.rss(), 8 * MIB);
        let mut k = r.launch("k");
        k.read(&b, 0, 8 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.bytes_migrated_in, 8 * MIB);
        assert!(rep.traffic.gpu_faults > 0);
        assert_eq!(r.rss(), 0, "all pages migrated to GPU");
        // Second kernel reads locally.
        let mut k = r.launch("k2");
        k.read(&b, 0, 8 * MIB);
        let rep2 = k.finish();
        assert_eq!(rep2.traffic.hbm_read, 8 * MIB);
        assert_eq!(rep2.traffic.bytes_migrated_in, 0);
        assert!(rep2.time < rep.time);
    }

    #[test]
    fn counter_migration_is_delayed_and_budgeted() {
        let params = CostParams {
            counter_budget_per_kernel: 1,
            ..Default::default()
        };
        let mut r = Runtime::new(params, RuntimeOptions::default());
        let b = r.malloc_system(Bytes::new(8 * MIB), "s"); // 4 regions
        r.cpu_write(&b, 0, 8 * MIB);
        // Each kernel re-reads everything: regions get hot, driver
        // migrates one region per kernel.
        let mut migrated_total = 0;
        let mut times = Vec::new();
        for i in 0..6 {
            let mut k = r.launch(&format!("iter{i}"));
            k.read(&b, 0, 8 * MIB);
            let rep = k.finish();
            migrated_total += rep.traffic.bytes_migrated_in;
            times.push(rep.time);
        }
        assert_eq!(migrated_total, 8 * MIB, "whole working set migrated");
        // Last iterations are faster than the first (local reads).
        assert!(times[5] < times[0]);
        // Migration happened over several kernels, not all at once.
        assert!(r.traffic.kernels_named("iter0").len() == 1);
        let first = r.traffic.kernels_named("iter0")[0].bytes_migrated_in;
        assert!(first < 8 * MIB);
    }

    #[test]
    fn counter_migration_disabled_means_no_movement() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(8 * MIB), "s");
        r.cpu_write(&b, 0, 8 * MIB);
        for _ in 0..3 {
            let mut k = r.launch("k");
            k.read(&b, 0, 8 * MIB);
            let rep = k.finish();
            assert_eq!(rep.traffic.bytes_migrated_in, 0);
        }
        assert_eq!(r.rss(), 8 * MIB);
    }

    #[test]
    fn strided_access_marks_random_and_touches_pages() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(8 * MIB), "s");
        r.cpu_write(&b, 0, 8 * MIB);
        let mut k = r.launch("k");
        // 1 KiB segments every 64 KiB: touches every 64K page but only
        // 1/64 of the bytes.
        k.read_strided(&b, 0, KIB, 64 * KIB, 128);
        let rep = k.finish();
        assert_eq!(rep.traffic.c2c_read, 128 * KIB);
    }

    #[test]
    fn gather_touches_individual_lines() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(MIB), "s");
        r.cpu_write(&b, 0, MIB);
        let mut k = r.launch("k");
        k.gather_read(&b, (0..100).map(|i| i * 8 * KIB), Bytes::new(8));
        let rep = k.finish();
        // Each 8-byte gather costs one full 128 B line remotely.
        assert_eq!(rep.traffic.c2c_read, 100 * 128);
    }

    #[test]
    fn compute_bound_kernel_time_tracks_compute() {
        let mut r = rt();
        let t0 = {
            let mut k = r.launch("c");
            k.compute(9_000_000_000); // 1 ms at 9000 units/ns
            k.finish().time
        };
        assert!((900_000..1_200_000).contains(&t0), "got {t0}");
    }

    #[test]
    fn memory_and_compute_overlap() {
        let mut r = rt();
        let d = r.cuda_malloc(Bytes::new(34 * MIB), "d").unwrap();
        let mut k = r.launch("k");
        k.read(&d, 0, 34 * MIB); // ~10 µs at 3.4 TB/s
        k.compute(900_000_000); // 100 µs
        let rep = k.finish();
        assert!(
            rep.time >= 100_000 && rep.time < 120_000,
            "compute-bound kernel, got {}",
            rep.time
        );
    }

    #[test]
    fn pinned_access_is_always_remote() {
        let mut r = rt();
        let b = r.cuda_malloc_host(Bytes::new(MIB), "p");
        let mut k = r.launch("k");
        k.read(&b, 0, MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.c2c_read, MIB);
        assert_eq!(rep.traffic.hbm_read, 0);
    }

    #[test]
    #[should_panic(expected = "without finish")]
    fn dropping_unfinished_kernel_panics() {
        let mut r = rt();
        let _k = r.launch("oops");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kernel_access_oob_panics() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(KIB), "s"); // rounds up to one 64 KiB page
        let mut k = r.launch("k");
        k.read(&b, 0, 128 * KIB);
        k.finish();
    }

    #[test]
    fn mem_advise_read_mostly_blocks_counter_migration() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(6 * MIB), "shared");
        r.cpu_write(&b, 0, 6 * MIB);
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::ReadMostly);
        for _ in 0..8 {
            let mut k = r.launch("reader");
            k.read(&b, 0, 6 * MIB);
            let rep = k.finish();
            assert_eq!(rep.traffic.bytes_migrated_in, 0);
        }
        assert_eq!(r.rss(), 6 * MIB, "data stays CPU-resident");
        // Clearing the advice re-enables migration.
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::Clear);
        let mut moved = 0;
        for _ in 0..8 {
            let mut k = r.launch("reader");
            k.read(&b, 0, 6 * MIB);
            moved += k.finish().traffic.bytes_migrated_in;
        }
        assert!(moved > 0);
    }

    #[test]
    fn mem_advise_read_mostly_keeps_managed_remote() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(4 * MIB), "shared");
        r.cpu_write(&b, 0, 4 * MIB);
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::ReadMostly);
        let mut k = r.launch("reader");
        k.read(&b, 0, 4 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.bytes_migrated_in, 0, "no on-demand migration");
        assert_eq!(rep.traffic.gpu_faults, 0);
        assert_eq!(rep.traffic.c2c_read, 4 * MIB);
        assert_eq!(r.rss(), 4 * MIB);
    }

    #[test]
    fn mem_advise_preferred_gpu_steers_first_touch() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(2 * MIB), "pref");
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::PreferredLocation(Node::Gpu));
        r.cpu_write(&b, 0, 2 * MIB);
        assert_eq!(r.rss(), 0, "CPU writes landed on the GPU node");
        assert_eq!(r.gpu_used() - r.params().gpu_driver_baseline, 2 * MIB);
    }

    #[test]
    fn read_2d_full_pitch_equals_dense() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(MIB), "s");
        r.cpu_write(&b, 0, MIB);
        let mut k = r.launch("dense");
        k.read_2d(&b, 0, Bytes::new(1024), 1024, 64);
        let dense = k.finish().traffic;
        let mut k = r.launch("sub");
        k.read_2d(&b, 0, Bytes::new(256), 1024, 64);
        let sub = k.finish().traffic;
        assert_eq!(dense.l1l2, 64 * 1024);
        assert_eq!(sub.l1l2, 64 * 256);
        assert!(sub.c2c_read >= 64 * 256, "line-rounded remote traffic");
    }

    #[test]
    fn per_buffer_attribution_identifies_top_talker() {
        let mut r = rt_nomig();
        let remote = r.malloc_system(Bytes::new(2 * MIB), "remote_buf");
        r.cpu_write(&remote, 0, 2 * MIB);
        let local = r.cuda_malloc(Bytes::new(4 * MIB), "local_buf").unwrap();
        let mut k = r.launch("k");
        k.read(&remote, 0, 2 * MIB);
        k.read(&local, 0, 4 * MIB);
        let rep = k.finish();
        assert_eq!(rep.by_buffer.len(), 2);
        assert_eq!(rep.by_buffer[0].tag, "remote_buf");
        assert_eq!(rep.by_buffer[0].c2c, 2 * MIB);
        assert_eq!(rep.by_buffer[0].hbm, 0);
        let local_row = rep.by_buffer.iter().find(|b| b.tag == "local_buf").unwrap();
        assert_eq!(local_row.hbm, 4 * MIB);
        assert_eq!(local_row.c2c, 0);
    }

    #[test]
    fn l1l2_includes_local_and_remote() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(2 * MIB), "s");
        r.cpu_write(&b, 0, MIB); // half CPU-resident
        let mut k = r.launch("init_rest");
        k.write(&b, MIB, MIB); // half GPU first-touch
        k.finish();
        let mut k = r.launch("k");
        k.read(&b, 0, 2 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.l1l2, 2 * MIB);
        assert_eq!(rep.traffic.c2c_read, MIB);
        assert_eq!(rep.traffic.hbm_read, MIB);
    }

    // --- sparse path vs per-span loop --------------------------------

    /// One metered call: buffer index, write, `(off, len, random)` spans.
    type Call = (usize, bool, Vec<(u64, u64, bool)>);

    /// A differential script step: a kernel of calls, or a runtime
    /// action between kernels.
    enum Step {
        Kernel(Vec<Call>),
        Do(fn(&mut Runtime, &[Buffer])),
    }

    /// Everything a metered span can change.
    #[derive(Debug, PartialEq)]
    struct Observed {
        kernels: Vec<(Ns, KernelTraffic, Vec<BufferTraffic>)>,
        tlb: (u64, u64),
        l2: Vec<(u64, u64)>,
        now: Ns,
        ptes: Vec<Option<(Node, bool)>>,
        notifs: Vec<u64>,
        counts: Vec<u64>,
        lru: Vec<u64>,
        touched: std::collections::BTreeMap<u64, std::collections::BTreeSet<Vpn>>,
        events: Vec<gh_trace::Stamped>,
    }

    fn observe(
        setup: &dyn Fn() -> (Runtime, Vec<Buffer>),
        steps: &[Step],
        sparse: bool,
    ) -> Observed {
        let (mut r, bufs) = setup();
        let (mut kernels, mut l2) = (Vec::new(), Vec::new());
        for (i, step) in steps.iter().enumerate() {
            let calls = match step {
                Step::Kernel(calls) => calls,
                Step::Do(action) => {
                    action(&mut r, &bufs);
                    continue;
                }
            };
            let mut k = r.launch(&format!("k{i}"));
            for (b, write, spans) in calls {
                if sparse {
                    k.sparse(&bufs[*b], *write, spans.iter().copied());
                } else {
                    for &(off, len, random) in spans {
                        k.span(&bufs[*b], off, len, *write, random);
                    }
                }
            }
            let rep = k.finish();
            let cache = r.l2_pool.as_ref().expect("finish parks the L2 model");
            l2.push((cache.hits(), cache.misses()));
            kernels.push((rep.time, rep.traffic, rep.by_buffer));
        }
        let (mut ptes, mut counts) = (Vec::new(), Vec::new());
        for b in bufs.iter().filter(|b| b.kind != BufKind::Device) {
            for vpn in r.os.system_pt.vpn_range(b.range.addr, b.range.len) {
                ptes.push(r.os.system_pt.translate(vpn).map(|p| (p.node, p.dirty)));
            }
            let regions =
                r.counters.region_of(b.range.addr)..=r.counters.region_of(b.range.end() - 1);
            counts.extend(regions.map(|region| r.counters.count(region)));
        }
        Observed {
            kernels,
            tlb: (r.gpu_tlb.hits(), r.gpu_tlb.misses()),
            l2,
            now: r.now(),
            ptes,
            notifs: r.pending_notifs.iter().copied().collect(),
            counts,
            lru: r.uvm.lru_order(),
            touched: r
                .remote_touched
                .iter()
                .map(|(&region, vpns)| (region, vpns.clone()))
                .collect(),
            events: r.session.bus.take().events,
        }
    }

    /// Runs `steps` twice on fresh runtimes from `setup` — metering
    /// through [`Kernel::sparse`], then span by span — and asserts the
    /// two runs are indistinguishable.
    fn assert_sparse_matches(
        setup: &dyn Fn() -> (Runtime, Vec<Buffer>),
        steps: &[Step],
    ) -> Observed {
        let batched = observe(setup, steps, true);
        let reference = observe(setup, steps, false);
        assert_eq!(
            batched, reference,
            "sparse path diverged from the span loop"
        );
        reference
    }

    /// A traced runtime (so event order is compared too) with `params`.
    fn traced(params: CostParams) -> Runtime {
        let so = crate::SessionOptions {
            trace: true,
            ..Default::default()
        };
        Runtime::with_session(
            params,
            crate::SessionCtx::with_options(RuntimeOptions::default(), &so),
        )
    }

    /// Tiny TLB: evictions (and their trace events) on every few pages.
    fn small_tlb() -> CostParams {
        CostParams {
            gpu_tlb_entries: 8,
            ..Default::default()
        }
    }

    /// `n` one-line touches of `len` bytes, `step` bytes apart from `off`.
    fn touches(off: u64, step: u64, n: u64, len: u64) -> Vec<(u64, u64, bool)> {
        (0..n).map(|i| (off + i * step, len, true)).collect()
    }

    fn kernels(n: usize, calls: &[Call]) -> Vec<Step> {
        (0..n).map(|_| Step::Kernel(calls.to_vec())).collect()
    }

    #[test]
    fn sparse_matches_with_unsorted_and_duplicate_offsets() {
        let setup = || {
            let mut r = traced(small_tlb());
            let a = r.malloc_system(Bytes::new(MIB), "a");
            let b = r.malloc_system(Bytes::new(MIB), "b");
            r.cpu_write(&a, 0, MIB);
            r.cpu_write(&b, 0, MIB);
            (r, vec![a, b])
        };
        let shuffled = vec![
            (70_000, 4, true),
            (100, 8, true),
            (100, 8, true),
            (5_000, 4, true),
            (300_000, 4, true),
            (4, 0, true),
            (100, 8, true),
            (3 * 65_536 + 8, 4, true),
            (70_004, 4096, false),
            (70_000, 4, true),
        ];
        let calls: Vec<Call> = vec![
            (0, false, shuffled.clone()),
            (1, true, shuffled.clone()),
            (0, true, shuffled.iter().rev().copied().collect()),
        ];
        // BFS kernel 2 shape: one-span calls alternating two buffers.
        let mut interleaved: Vec<Call> = Vec::new();
        for span in touches(0, 40_000, 20, 1) {
            interleaved.push((0, true, vec![span]));
            interleaved.push((1, true, vec![span]));
        }
        let mut steps = kernels(3, &calls);
        steps.extend(kernels(2, &interleaved));
        let seen = assert_sparse_matches(&setup, &steps);
        assert!(seen
            .kernels
            .iter()
            .all(|(_, t, _)| t.c2c_read + t.c2c_write > 0));
    }

    #[test]
    fn sparse_matches_on_page_and_block_crossing_spans() {
        let setup = || {
            let mut r = traced(small_tlb());
            let m = r.cuda_malloc_managed(Bytes::new(6 * MIB), "m");
            let s = r.malloc_system(Bytes::new(6 * MIB), "s");
            let mut k = r.launch("gpu_init");
            k.write(&m, 0, 6 * MIB);
            k.write(&s, 0, 6 * MIB);
            k.finish();
            (r, vec![m, s])
        };
        let crossing = vec![
            (2 * MIB - 8, 16, true),
            (2 * MIB + 4, 8, true),
            (64 * KIB - 2, 4, true),
            (64 * KIB + 8, 4, true),
            (4 * MIB - 64 * KIB, 128 * KIB, false),
            (4 * MIB + 12, 4, true),
            (6 * MIB - 4, 4, true),
        ];
        let calls: Vec<Call> = vec![
            (0, false, crossing.clone()),
            (0, true, crossing.clone()),
            (1, false, crossing.clone()),
            (1, true, crossing),
        ];
        assert_sparse_matches(&setup, &kernels(2, &calls));
    }

    #[test]
    fn sparse_matches_when_counters_cross_threshold_mid_group() {
        let setup = || {
            let mut r = traced(small_tlb());
            let b = r.malloc_system(Bytes::new(6 * MIB), "hot");
            r.cpu_write(&b, 0, 6 * MIB);
            (r, vec![b])
        };
        // The first call settles every page the second one touches. The
        // second fills the TLB, so every new page evicts; then 300
        // one-line touches on one 64 KiB page (threshold 256), then
        // groups on further pages of the same and the next regions, the
        // last one crossing the threshold in the call's final group.
        let prefill = touches(3 * MIB, 64 * KIB, 12, 4);
        let mut settle = prefill.clone();
        settle.extend([(0, 4, true), (64 * KIB, 4, true), (2 * MIB, 4, true)]);
        settle.push((4 * MIB, 4, true));
        let mut hot = prefill;
        hot.extend(touches(0, 128, 300, 4));
        hot.extend(touches(64 * KIB, 128, 100, 4));
        hot.extend(touches(2 * MIB, 128, 300, 4));
        hot.extend(touches(128, 128, 10, 4));
        hot.extend(touches(4 * MIB, 128, 300, 4));
        let calls: Vec<Call> = vec![(0, false, settle), (0, false, hot)];
        let seen = assert_sparse_matches(&setup, &kernels(3, &calls));
        assert_eq!(seen.kernels[0].1.notifications, 3, "threshold crossed");
        assert!(seen.kernels.iter().any(|(_, t, _)| t.pages_migrated_in > 0));
        let notify =
            |e: &gh_trace::Stamped| matches!(e.event, gh_trace::Event::CounterNotify { .. });
        assert!(seen.events.iter().any(notify));
    }

    #[test]
    fn sparse_matches_with_ats_first_touch_on_group_head() {
        let setup = || {
            let mut r = traced(small_tlb());
            let b = r.malloc_system(Bytes::new(2 * MIB), "fresh");
            r.cpu_write(&b, MIB, 64 * KIB);
            (r, vec![b])
        };
        // Reads fault pages in clean; writes on them must dirty them.
        let calls: Vec<Call> = vec![
            (0, false, touches(0, 16 * KIB, 128, 8)),
            (0, true, touches(8 * KIB, 16 * KIB, 128, 8)),
        ];
        let seen = assert_sparse_matches(&setup, &kernels(2, &calls));
        assert!(seen.kernels[0].1.ats_faults > 0);
        assert_eq!(seen.kernels[1].1.ats_faults, 0);
    }

    #[test]
    fn sparse_matches_on_partly_gpu_resident_managed_block() {
        let setup = || {
            let mut r = traced(CostParams::default());
            let m = r.cuda_malloc_managed(Bytes::new(4 * MIB), "m");
            let mut k = r.launch("gpu_init");
            k.write(&m, 0, 3 * MIB);
            k.finish();
            // Pull part of block 0 back to the CPU; the tail of block 1
            // was never touched.
            r.cpu_read(&m, 256 * KIB, 256 * KIB);
            (r, vec![m])
        };
        let spans = touches(8, 96 * KIB, 40, 64);
        let seen = assert_sparse_matches(&setup, &kernels(2, &[(0, true, spans)]));
        assert!(seen.kernels[0].1.gpu_faults > 0);
    }

    #[test]
    fn sparse_matches_when_managed_blocks_evict_each_other() {
        let setup = || {
            let mut r = traced(CostParams {
                gpu_mem_bytes: 7 * MIB,
                ..Default::default()
            });
            let a = r.cuda_malloc_managed(Bytes::new(6 * MIB), "a");
            let b = r.cuda_malloc_managed(Bytes::new(6 * MIB), "b");
            r.cpu_write(&a, 0, 6 * MIB);
            r.cpu_write(&b, 0, 6 * MIB);
            (r, vec![a, b])
        };
        // Each buffer's blocks in turn, revisited: faulting a block in
        // evicts a block another call settled.
        let mut calls: Vec<Call> = Vec::new();
        for round in 0..3u64 {
            for buf in 0..2 {
                let spans = (0..3u64)
                    .flat_map(|blk| touches(blk * 2 * MIB + round * 256, 64 * KIB, 4, 8))
                    .collect();
                calls.push((buf, round % 2 == 1, spans));
            }
        }
        let seen = assert_sparse_matches(&setup, &kernels(2, &calls));
        assert!(seen.kernels.iter().all(|(_, t, _)| t.pages_migrated_in > 0));
    }

    #[test]
    fn sparse_matches_when_first_touch_evicts_a_settled_block() {
        let setup = || {
            let mut r = traced(CostParams {
                gpu_mem_bytes: 7 * MIB,
                ..Default::default()
            });
            let m = r.cuda_malloc_managed(Bytes::new(12 * MIB), "m");
            (r, vec![m])
        };
        // GPU first touch of block after block fills HBM and evicts the
        // coldest blocks of the same buffer, settled earlier in the call.
        let spans: Vec<_> = [0, 1, 2, 3, 4, 0, 1, 5, 0]
            .into_iter()
            .flat_map(|blk: u64| touches(blk * 2 * MIB + 64, 128 * KIB, 3, 8))
            .collect();
        let seen = assert_sparse_matches(&setup, &kernels(2, &[(0, true, spans)]));
        assert!(
            seen.kernels[0].1.gpu_faults > 6,
            "evicted blocks fault back"
        );
    }

    #[test]
    fn sparse_matches_on_pinned_and_read_mostly_managed() {
        let setup = || {
            let mut r = traced(CostParams::default());
            let pinned = r.cuda_malloc_managed(Bytes::new(4 * MIB), "pinned");
            let shared = r.cuda_malloc_managed(Bytes::new(4 * MIB), "shared");
            let mut k = r.launch("gpu_init");
            k.write(&pinned, 0, 4 * MIB);
            k.write(&shared, 0, 4 * MIB);
            k.finish();
            r.uvm_pin_cpu(pinned.range);
            r.cuda_mem_advise(&shared, crate::runtime::MemAdvise::ReadMostly);
            (r, vec![pinned, shared])
        };
        let spans = touches(4, 48 * KIB, 80, 16);
        let calls: Vec<Call> = vec![(0, false, spans.clone()), (1, true, spans)];
        let seen = assert_sparse_matches(&setup, &kernels(2, &calls));
        let remote = |(_, t, _): &(Ns, KernelTraffic, Vec<BufferTraffic>)| t.c2c_read + t.c2c_write;
        assert!(seen.kernels.iter().all(|k| remote(k) > 0));
    }

    #[test]
    fn sparse_matches_when_advice_and_migration_change_between_kernels() {
        let setup = || {
            let mut r = traced(CostParams::default());
            let m = r.cuda_malloc_managed(Bytes::new(4 * MIB), "m");
            let mut k = r.launch("gpu_init");
            k.write(&m, 0, 4 * MIB);
            k.finish();
            (r, vec![m])
        };
        let spans = touches(0, 40 * KIB, 90, 8);
        let call: Vec<Call> = vec![(0, true, spans)];
        let steps = [
            Step::Kernel(call.clone()),
            Step::Do(|r, b| r.cuda_mem_advise(&b[0], crate::runtime::MemAdvise::ReadMostly)),
            Step::Kernel(call.clone()),
            Step::Do(|r, b| r.cuda_mem_advise(&b[0], crate::runtime::MemAdvise::Clear)),
            Step::Do(|r, b| r.cpu_write(&b[0], 0, 4 * MIB)),
            Step::Kernel(call.clone()),
            Step::Kernel(call),
        ];
        assert_sparse_matches(&setup, &steps);
    }

    #[test]
    fn sparse_matches_on_device_and_pinned_buffers() {
        let setup = || {
            let mut r = traced(small_tlb());
            let d = r.cuda_malloc(Bytes::new(8 * MIB), "d").unwrap();
            let p = r.cuda_malloc_host(Bytes::new(4 * MIB), "p");
            (r, vec![d, p])
        };
        let mut spans = touches(0, 36 * KIB, 28, 64);
        spans.push((2 * MIB - 4, 8, true));
        spans.push((0, 0, true));
        let calls: Vec<Call> = vec![
            (0, false, spans.clone()),
            (1, true, spans.clone()),
            (0, true, spans),
        ];
        assert_sparse_matches(&setup, &kernels(2, &calls));
    }

    #[test]
    fn sparse_matches_on_unified_pool() {
        let setup = || {
            let params = CostParams {
                unified_pool: true,
                gpu_mem_bytes: 128 * MIB,
                cpu_mem_bytes: 128 * MIB,
                gpu_driver_baseline: 512 * KIB,
                system_page_size: 4 * KIB,
                gpu_tlb_entries: 16,
                ..Default::default()
            };
            let mut r = traced(params);
            let s = r.malloc_system(Bytes::new(2 * MIB), "s");
            let m = r.cuda_malloc_managed(Bytes::new(2 * MIB), "m");
            let p = r.cuda_malloc_host(Bytes::new(2 * MIB), "p");
            r.cpu_write(&s, 0, MIB);
            r.cpu_write(&m, 0, 2 * MIB);
            (r, vec![s, m, p])
        };
        let spans = touches(12, 6 * KIB, 300, 8);
        let calls: Vec<Call> = vec![
            (0, true, spans.clone()),
            (1, false, spans.clone()),
            (2, true, spans),
        ];
        let seen = assert_sparse_matches(&setup, &kernels(2, &calls));
        assert!(seen.kernels[0].1.ats_faults > 0, "untouched half faults in");
    }
}

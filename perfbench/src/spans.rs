//! Host-time spans around the benchmark's own calls into each layer,
//! and a counting allocator for the traced run.
//!
//! A span is opened around one call into a layer's public function and
//! closed when it returns. Spans nest on a stack, so each layer's *self*
//! time is its spans' duration minus the part covered by child spans.
//! Per-layer totals are kept for every span; the first [`RAW_CAP`] raw
//! spans (layer, start, end, parent, request id) are kept in memory and
//! written out when the benchmark ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A layer of the simulator, as the benchmark's spans see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Kernel::step`: heap pop plus whatever the event runs that no
    /// other span claims (fabric delivery, device completions, timers).
    Kernel,
    /// `SpdkTarget::on_pdu`.
    NvmfTarget,
    /// `SpdkInitiator::on_pdu`.
    NvmfInitiator,
    /// `SpdkInitiator::submit`.
    NvmfSubmit,
    /// `OpfTarget::on_pdu`.
    OpfTarget,
    /// `OpfInitiator::on_pdu`.
    OpfInitiator,
    /// `OpfInitiator::submit`.
    OpfSubmit,
    /// The closures returned by `faults::wrap_target_rx` / `wrap_pdu_rx`.
    Faults,
    /// `ClusterPriorityManager::tick`.
    Cluster,
    /// The benchmark-installed completion and arrival closures.
    Driver,
    /// Building the stack before the first event.
    Setup,
    /// Assembling the end-of-run metrics snapshot.
    Snapshot,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 12;

    /// Label written to the raw span file.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Kernel => "simkit.step",
            Layer::NvmfTarget => "nvmf.target_on_pdu",
            Layer::NvmfInitiator => "nvmf.initiator_on_pdu",
            Layer::NvmfSubmit => "nvmf.submit",
            Layer::OpfTarget => "opf.target_on_pdu",
            Layer::OpfInitiator => "opf.initiator_on_pdu",
            Layer::OpfSubmit => "opf.submit",
            Layer::Faults => "faults.wrap",
            Layer::Cluster => "cluster.tick",
            Layer::Driver => "workload.driver",
            Layer::Setup => "workload.setup",
            Layer::Snapshot => "workload.snapshot",
        }
    }
}

/// Raw spans kept in memory per recorder.
pub const RAW_CAP: usize = 1 << 16;

/// Accumulated host time of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span duration (ns).
    pub total_ns: u64,
    /// Summed duration not covered by child spans (ns).
    pub self_ns: u64,
}

/// One raw span.
#[derive(Clone, Copy, Debug)]
struct RawSpan {
    /// Layer of the span.
    layer: Layer,
    /// Start, ns since the recorder was created.
    start_ns: u64,
    /// End, ns since the recorder was created.
    end_ns: u64,
    /// Layer of the enclosing span, if any.
    parent: Option<Layer>,
    /// Request id: `(tenant << 16) | cid` for spans that belong to one
    /// request, 0 otherwise.
    req: u64,
}

struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    req: u64,
}

/// Span recorder for one traced execution.
pub struct Spans {
    origin: Instant,
    stack: RefCell<Vec<Frame>>,
    totals: RefCell<[LayerTotals; Layer::COUNT]>,
    raw: RefCell<Vec<RawSpan>>,
    /// Deepest kernel heap seen after any step.
    pub pending_max: Cell<usize>,
    /// Largest target-endpoint uplink backlog seen at a target receive
    /// (ns of virtual time).
    pub uplink_backlog_max_ns: Cell<u64>,
    /// Longest open-loop application queue seen.
    pub app_queue_max: Cell<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            stack: RefCell::new(Vec::with_capacity(16)),
            totals: RefCell::new([LayerTotals::default(); Layer::COUNT]),
            raw: RefCell::new(Vec::with_capacity(RAW_CAP)),
            pending_max: Cell::new(0),
            uplink_backlog_max_ns: Cell::new(0),
            app_queue_max: Cell::new(0),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer` tagged with request id `req`.
    #[inline]
    pub fn time<R>(&self, layer: Layer, req: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        self.stack.borrow_mut().push(Frame {
            layer,
            start_ns,
            child_ns: 0,
            req,
        });
        let r = f();
        let end_ns = self.now_ns();
        let mut stack = self.stack.borrow_mut();
        let frame = stack.pop().expect("span stack balanced by construction");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let parent = stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.layer
        });
        drop(stack);
        let mut totals = self.totals.borrow_mut();
        let t = &mut totals[layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        drop(totals);
        let mut raw = self.raw.borrow_mut();
        if raw.len() < RAW_CAP {
            raw.push(RawSpan {
                layer,
                start_ns,
                end_ns,
                parent,
                req: frame.req,
            });
        }
        r
    }

    /// Set the request id of the innermost open span (for calls whose
    /// request id is only known once they return, like a submit's CID).
    pub fn tag(&self, req: u64) {
        if let Some(frame) = self.stack.borrow_mut().last_mut() {
            frame.req = req;
        }
    }

    /// Totals of `layer` so far.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals.borrow()[layer as usize]
    }

    /// Summed self time over every layer (ns).
    pub fn self_sum_ns(&self) -> u64 {
        self.totals.borrow().iter().map(|t| t.self_ns).sum()
    }

    /// Write the kept raw spans as tab-separated lines.
    pub fn write_raw(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "layer\tstart_ns\tend_ns\tparent\treq")?;
        for s in self.raw.borrow().iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:#x}",
                s.layer.label(),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("-", Layer::label),
                s.req
            )?;
        }
        Ok(())
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and frees while
/// [`count_allocations`] is on. Off, it costs one relaxed load per call.
pub struct CountingAlloc;

#[inline]
fn note_alloc(size: usize) {
    // relaxed-ok: standalone statistics, publishing no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

#[inline]
fn note_free(size: usize) {
    // relaxed-ok: standalone statistics, publishing no other data.
    if COUNTING.load(Ordering::Relaxed) {
        FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded from our caller, who upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off.
pub fn count_allocations(on: bool) {
    // relaxed-ok: a standalone flag; no data is published through it.
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation counters, cumulative over every counted stretch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes allocated.
    pub bytes: u64,
    /// Bytes freed.
    pub freed: u64,
}

impl AllocCounts {
    /// Counters now.
    pub fn now() -> AllocCounts {
        // relaxed-ok: statistics read on the thread that did the counted
        // work, after it finished.
        AllocCounts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            freed: FREED_BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }

    /// Bytes allocated and not freed (negative if the stretch freed
    /// memory allocated before it).
    pub fn retained(self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a writable, correctly sized `struct rusage`
    // (x86-64 / aarch64 Linux layout) and RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    // SAFETY: zero-initialised and filled in by a successful getrusage.
    let usage = unsafe { usage.assume_init() };
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

//! The traced run: the benchmark's own assembly of a scenario's stack,
//! built from the same public constructors `workload::run` uses, with a
//! host-time span around every call the benchmark makes into a layer.
//!
//! The assembly mirrors `workload::runner` for the scenario shapes the
//! benchmark generates (one target pair, or one cluster; no keep-alive
//! loop, adversary or bandwidth degradation) and refuses any other
//! shape. The equivalence test and every traced benchmark run check that it reproduces `workload::run` exactly: same
//! event count, same snapshot digest.

use crate::spans::{Layer, Spans};
use bytes::Bytes;
use fabric::{Endpoint, FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, BLOCK_SIZE};
use nvmf::initiator::TargetRx;
use nvmf::pdu::Pdu;
use nvmf::qpair::IoCallback;
use nvmf::{CpuCosts, PduRx, RetryPolicy, SpdkInitiator, SpdkTarget};
use opf::{OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, QueueMode, ReqClass};
use simkit::{shared, Kernel, Metrics, MetricsSource, Pcg32, Shared, SimDuration, SimTime, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use workload::{Histogram, Mix, Pattern, RuntimeKind, Scenario, TenantTraffic, Transport};

/// What one execution of the assembly produced: the same two things the
/// equivalence check compares against `workload::run`.
pub struct Outcome {
    /// Kernel events executed.
    pub events: u64,
    /// The end-of-run snapshot, key for key what `workload::run` returns.
    pub metrics: Metrics,
}

/// Why a scenario cannot be assembled here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported(pub &'static str);

/// Check that the assembly covers `sc`.
fn supports(sc: &Scenario) -> Result<(), Unsupported> {
    if sc.pairs != 1 {
        return Err(Unsupported("more than one target pair"));
    }
    if let Some(p) = &sc.faults {
        if p.keepalive.is_some() || p.adversary.is_some() || !p.degrades.is_empty() {
            return Err(Unsupported("keep-alive, adversary or degradation faults"));
        }
    }
    if sc.is_cluster() && (sc.runtime != RuntimeKind::Opf || sc.traffic.is_some()) {
        return Err(Unsupported(
            "cluster scenario outside workload::run's limits",
        ));
    }
    Ok(())
}

#[derive(Clone)]
enum Ini {
    Spdk(Shared<SpdkInitiator>),
    Opf(Shared<OpfInitiator>),
}

impl Ini {
    fn has_capacity(&self) -> bool {
        match self {
            Ini::Spdk(i) => i.borrow().has_capacity(),
            Ini::Opf(i) => i.borrow().has_capacity(),
        }
    }

    fn metrics(&self, now: SimTime) -> Metrics {
        match self {
            Ini::Spdk(i) => i.borrow().metrics(now),
            Ini::Opf(i) => i.borrow().metrics(now),
        }
    }
}

enum Tgt {
    Spdk(Shared<SpdkTarget>),
    Opf(Shared<OpfTarget>),
}

impl Tgt {
    fn resps_tx(&self) -> u64 {
        match self {
            Tgt::Spdk(t) => t.borrow().stats.resps_tx,
            Tgt::Opf(t) => t.borrow().stats.resps_tx,
        }
    }

    fn reactor_utilization(&self, now: SimTime) -> f64 {
        match self {
            Tgt::Spdk(t) => t.borrow().reactor_utilization(now),
            Tgt::Opf(t) => t.borrow().reactor_utilization(now),
        }
    }

    fn metrics(&self, now: SimTime) -> Metrics {
        match self {
            Tgt::Spdk(t) => t.borrow().metrics(now),
            Tgt::Opf(t) => t.borrow().metrics(now),
        }
    }
}

/// Request id of `cid` on tenant `tenant`, as spans tag it.
fn req_id(tenant: u8, cid: u16) -> u64 {
    (u64::from(tenant) << 16) | u64::from(cid)
}

fn pdu_cid(pdu: &Pdu) -> u16 {
    match pdu {
        Pdu::CapsuleCmd { sqe, .. } => sqe.cid,
        Pdu::CapsuleResp { cqe, .. } => cqe.cid,
        Pdu::H2CData { cccid, .. } | Pdu::C2HData { cccid, .. } | Pdu::R2T { cccid, .. } => *cccid,
    }
}

/// A submit on either runtime, inside a span.
#[allow(clippy::too_many_arguments)]
fn submit(
    spans: &Rc<Spans>,
    ini: &Ini,
    tenant: u8,
    k: &mut Kernel,
    class: ReqClass,
    opcode: Opcode,
    slba: u64,
    blocks: u16,
    payload: Option<Bytes>,
    cb: IoCallback,
) -> Option<u16> {
    let call = |k: &mut Kernel| match ini {
        Ini::Spdk(i) => {
            let priority = match class {
                ReqClass::LatencySensitive => nvmf::Priority::LatencySensitive,
                ReqClass::ThroughputCritical => {
                    nvmf::Priority::ThroughputCritical { draining: false }
                }
            };
            SpdkInitiator::submit(i, k, opcode, slba, blocks, payload, priority, cb)
        }
        Ini::Opf(i) => OpfInitiator::submit(i, k, class, opcode, slba, blocks, payload, cb),
    };
    let layer = match ini {
        Ini::Spdk(_) => Layer::NvmfSubmit,
        Ini::Opf(_) => Layer::OpfSubmit,
    };
    spans.time(layer, 0, || {
        let cid = call(k);
        if let Some(cid) = cid {
            spans.tag(req_id(tenant, cid));
        }
        cid
    })
}

/// Wrap a target receive closure in a span of `layer`.
fn span_target_rx(spans: &Rc<Spans>, layer: Layer, rx: TargetRx) -> TargetRx {
    let s = spans.clone();
    Rc::new(move |k: &mut Kernel, from: u8, pdu: Pdu| {
        let req = req_id(from, pdu_cid(&pdu));
        s.time(layer, req, || rx(k, from, pdu))
    })
}

/// Wrap an initiator receive closure of tenant `tenant` in a span.
fn span_pdu_rx(spans: &Rc<Spans>, layer: Layer, tenant: u8, rx: PduRx) -> PduRx {
    let s = spans.clone();
    Rc::new(move |k: &mut Kernel, pdu: Pdu| {
        let req = req_id(tenant, pdu_cid(&pdu));
        s.time(layer, req, || rx(k, pdu))
    })
}

/// A target receive path as the target sees it: the target span, and the
/// fault-plane interposer (in its own span) when a plane is armed.
fn faulted_target_rx(
    spans: &Rc<Spans>,
    plane: &Option<Shared<faults::FaultPlane>>,
    link: usize,
    rx: &TargetRx,
) -> TargetRx {
    match plane {
        Some(p) => span_target_rx(
            spans,
            Layer::Faults,
            faults::wrap_target_rx(p, link, rx.clone()),
        ),
        None => rx.clone(),
    }
}

fn faulted_pdu_rx(
    spans: &Rc<Spans>,
    plane: &Option<Shared<faults::FaultPlane>>,
    link: usize,
    tenant: u8,
    rx: PduRx,
) -> PduRx {
    match plane {
        Some(p) => span_pdu_rx(
            spans,
            Layer::Faults,
            tenant,
            faults::wrap_pdu_rx(p, link, rx),
        ),
        None => rx,
    }
}

/// A closed-loop perf-style tenant (the runner's `Driver`).
struct Driver {
    spans: Rc<Spans>,
    ini: Ini,
    tenant: u8,
    class: ReqClass,
    mix: Mix,
    io_blocks: u16,
    pattern: Pattern,
    rng: Pcg32,
    n: u64,
    lba_base: u64,
    lba_span: u64,
    payload: Bytes,
    hist: Rc<RefCell<Histogram>>,
    win_start: SimTime,
    win_end: SimTime,
    completed_in_win: Rc<Cell<u64>>,
}

fn issue(d: Rc<RefCell<Driver>>, k: &mut Kernel) {
    let (class, opcode, slba, blocks, payload) = {
        let mut dr = d.borrow_mut();
        let n = dr.n;
        dr.n += 1;
        let opcode = if dr.mix.is_read(n) {
            Opcode::Read
        } else {
            Opcode::Write
        };
        let blocks = dr.io_blocks;
        let slots = dr.lba_span / u64::from(blocks).max(1);
        let slot = match dr.pattern {
            Pattern::Sequential => n % slots,
            Pattern::Random => dr.rng.gen_range(0, slots),
        };
        let slba = dr.lba_base + slot * u64::from(blocks);
        let payload = (opcode == Opcode::Write).then(|| dr.payload.clone());
        (dr.class, opcode, slba, blocks, payload)
    };
    let d2 = d.clone();
    let cb: IoCallback = Box::new(move |k, out| {
        let spans = d2.borrow().spans.clone();
        spans.time(Layer::Driver, 0, || {
            {
                let dr = d2.borrow();
                let now = k.now();
                if now >= dr.win_start && now < dr.win_end {
                    dr.hist.borrow_mut().record(out.latency.as_nanos());
                    dr.completed_in_win.set(dr.completed_in_win.get() + 1);
                }
            }
            if k.now() < d2.borrow().win_end {
                issue(d2.clone(), k);
            }
        })
    });
    let (spans, ini, tenant) = {
        let dr = d.borrow();
        (dr.spans.clone(), dr.ini.clone(), dr.tenant)
    };
    let ok = submit(
        &spans, &ini, tenant, k, class, opcode, slba, blocks, payload, cb,
    );
    assert!(ok.is_some(), "closed loop must respect queue depth");
}

/// An open-loop tenant (the runner's `OpenTenant`).
struct OpenTenant {
    spans: Rc<Spans>,
    ini: Ini,
    tenant: u8,
    gen: TenantTraffic,
    pending: VecDeque<OpenReq>,
    payload: Bytes,
    default_blocks: u16,
    base_mix: Mix,
    rng: Pcg32,
    pattern: Pattern,
    n_addr: u64,
    lba_base: u64,
    lba_span: u64,
    hist: Rc<RefCell<Histogram>>,
    win_start: SimTime,
    win_end: SimTime,
    completed_in_win: Rc<Cell<u64>>,
    offered_total: u64,
    done_total: u64,
    offered_win: u64,
    done_win: u64,
}

#[derive(Clone, Copy)]
struct OpenReq {
    write: bool,
    blocks: u16,
    arrived: SimTime,
}

/// Run `f` inside a driver span, then sample the tenant's backlog.
fn in_driver_span(t: &Rc<RefCell<OpenTenant>>, k: &mut Kernel, f: impl FnOnce(&mut Kernel)) {
    let s = t.borrow().spans.clone();
    s.time(Layer::Driver, 0, || f(k));
    let depth = t.borrow().pending.len();
    if depth > s.app_queue_max.get() {
        s.app_queue_max.set(depth);
    }
}

fn open_arrival(t: Rc<RefCell<OpenTenant>>, k: &mut Kernel) {
    in_driver_span(&t, k, |k| {
        let now = k.now();
        let (req, gap, win_end) = {
            let mut s = t.borrow_mut();
            let (default_blocks, base_mix) = (s.default_blocks, s.base_mix);
            let (write, blocks) = s.gen.draw(now.as_nanos(), default_blocks, base_mix);
            s.offered_total += 1;
            if now >= s.win_start && now < s.win_end {
                s.offered_win += 1;
            }
            let gap = s.gen.next_gap_ns(now.as_nanos());
            (
                OpenReq {
                    write,
                    blocks,
                    arrived: now,
                },
                gap,
                s.win_end,
            )
        };
        if t.borrow().ini.has_capacity() {
            open_submit(&t, k, req);
        } else {
            t.borrow_mut().pending.push_back(req);
        }
        if now + SimDuration::from_nanos(gap) < win_end {
            let t2 = t.clone();
            k.schedule_in(SimDuration::from_nanos(gap), move |k| open_arrival(t2, k));
        }
    });
}

fn open_submit(t: &Rc<RefCell<OpenTenant>>, k: &mut Kernel, req: OpenReq) {
    let (opcode, slba, blocks, payload) = {
        let mut s = t.borrow_mut();
        let opcode = if req.write {
            Opcode::Write
        } else {
            Opcode::Read
        };
        let blocks = req.blocks.max(1);
        let slots = (s.lba_span / u64::from(blocks)).max(1);
        let n = s.n_addr;
        s.n_addr += 1;
        let slot = match s.pattern {
            Pattern::Sequential => n % slots,
            Pattern::Random => s.rng.gen_range(0, slots),
        };
        let slba = s.lba_base + slot * u64::from(blocks);
        let payload =
            (opcode == Opcode::Write).then(|| s.payload.slice(0..BLOCK_SIZE * blocks as usize));
        (opcode, slba, blocks, payload)
    };
    let t2 = t.clone();
    let arrived = req.arrived;
    let cb: IoCallback = Box::new(move |k, _out| {
        in_driver_span(&t2, k, |k| {
            {
                let mut s = t2.borrow_mut();
                s.done_total += 1;
                let now = k.now();
                if now >= s.win_start && now < s.win_end {
                    s.done_win += 1;
                    s.completed_in_win.set(s.completed_in_win.get() + 1);
                    s.hist.borrow_mut().record(now.since(arrived).as_nanos());
                }
            }
            let next = t2.borrow_mut().pending.pop_front();
            if let Some(r) = next {
                open_submit(&t2, k, r);
            }
        });
    });
    let (spans, ini, tenant) = {
        let s = t.borrow();
        (s.spans.clone(), s.ini.clone(), s.tenant)
    };
    let ok = submit(
        &spans,
        &ini,
        tenant,
        k,
        ReqClass::ThroughputCritical,
        opcode,
        slba,
        blocks,
        payload,
        cb,
    );
    assert!(ok.is_some(), "open-loop submit must respect capacity");
}

fn open_drain(t: Rc<RefCell<OpenTenant>>, k: &mut Kernel) {
    in_driver_span(&t, k, |k| loop {
        if !t.borrow().ini.has_capacity() {
            break;
        }
        let next = t.borrow_mut().pending.pop_front();
        match next {
            Some(req) => open_submit(&t, k, req),
            None => break,
        }
    });
    let t2 = t.clone();
    k.schedule_in(SimDuration::from_micros(1000), move |k| open_drain(t2, k));
}

/// Cluster-only parts of a stack.
struct ClusterParts {
    mgr: Shared<cluster::ClusterPriorityManager>,
    engine: cluster::MigrationEngine,
    links_profiled: usize,
    tgt_eps: Vec<Shared<Endpoint>>,
    shared_iep: Option<Shared<Endpoint>>,
    tenant_eps: Vec<Shared<Endpoint>>,
}

/// A scenario's stack, built and ready for its first event.
pub struct Stack {
    k: Kernel,
    sc: Scenario,
    spans: Rc<Spans>,
    end: SimTime,
    horizon: SimTime,
    ls_hist: Rc<RefCell<Histogram>>,
    tc_hist: Rc<RefCell<Histogram>>,
    ls_count: Rc<Cell<u64>>,
    tc_count: Rc<Cell<u64>>,
    targets: Vec<Tgt>,
    devices: Vec<Shared<NvmeDevice>>,
    /// Endpoints snapshotted under a prefix (single-target layout).
    endpoints: Vec<(String, Shared<Endpoint>)>,
    inis: Vec<(u64, Ini)>,
    open: Vec<Rc<RefCell<OpenTenant>>>,
    plane: Option<Shared<faults::FaultPlane>>,
    notif_at_warm: Rc<Cell<u64>>,
    cluster: Option<ClusterParts>,
}

fn costs_and_profile(sc: &Scenario) -> (CpuCosts, FlashProfile) {
    let speed: Gbps = sc.speed.into();
    let (costs, profile) = match speed {
        Gbps::G10 | Gbps::G25 => (CpuCosts::cc(), FlashProfile::cc_ssd()),
        Gbps::G100 => (CpuCosts::cl(), FlashProfile::cl_ssd()),
    };
    let costs = match sc.transport {
        Transport::Tcp => costs,
        Transport::Rdma => costs.to_rdma(),
    };
    (costs, profile)
}

fn target_config(sc: &Scenario) -> OpfTargetConfig {
    OpfTargetConfig {
        queue_mode: if sc.shared_queue {
            QueueMode::Shared
        } else {
            QueueMode::PerInitiator
        },
        ls_bypass: !sc.no_ls_bypass,
        ..OpfTargetConfig::default()
    }
}

/// Build `sc`'s stack, with every closure the benchmark installs wrapped
/// in a span recorded into `spans`.
pub fn build(sc: &Scenario, spans: Rc<Spans>) -> Result<Stack, Unsupported> {
    supports(sc)?;
    if sc.is_cluster() {
        Ok(build_cluster(sc, spans))
    } else {
        Ok(build_single(sc, spans))
    }
}

fn build_single(sc: &Scenario, spans: Rc<Spans>) -> Stack {
    // Churn storms become staggered crash windows over the TC slots.
    let mut sc = sc.clone();
    if let Some(t) = sc.traffic.clone().filter(|t| !t.churn.is_empty()) {
        let mut profile = sc.faults.take().unwrap_or_default();
        for storm in &t.churn {
            profile.crashes.extend(faults::churn_storm(
                sc.ls_per_node,
                storm.tenants.min(sc.tc_per_node.max(1)),
                SimTime::from_nanos((storm.at_s * 1e9) as u64),
                SimDuration::from_secs_f64(storm.for_s),
                SimDuration::from_micros(20),
            ));
        }
        sc.faults = Some(profile);
    }
    let mut k = Kernel::new(sc.seed);
    let net = Network::new(FabricConfig::preset(sc.speed.into()));
    let (costs, profile) = costs_and_profile(&sc);
    let plane = sc.faults.as_ref().map(|p| {
        let rng = k.rng().fork(0xFA17);
        shared(faults::FaultPlane::new(p.clone(), rng))
    });
    let warm = SimTime::from_nanos((sc.warmup_s * 1e9) as u64);
    let end = SimTime::from_nanos(((sc.warmup_s + sc.measure_s) * 1e9) as u64);
    let ls_hist = Rc::new(RefCell::new(Histogram::new()));
    let tc_hist = Rc::new(RefCell::new(Histogram::new()));
    let ls_count = Rc::new(Cell::new(0u64));
    let tc_count = Rc::new(Cell::new(0u64));
    let span_blocks = match &sc.traffic {
        Some(t) => t.max_blocks(sc.io_blocks.max(1)),
        None => sc.io_blocks.max(1),
    };
    let payload = Bytes::from(vec![0u8; BLOCK_SIZE * span_blocks as usize]);

    let mut drivers = Vec::new();
    let mut open = Vec::new();
    let mut endpoints = Vec::new();
    let mut inis = Vec::new();

    let tep = net.add_endpoint("tgt0");
    let device = shared(NvmeDevice::new(profile.clone(), 1 << 30, sc.seed));
    device.borrow_mut().set_store_data(false);
    endpoints.push(("pair0.tgt_ep.".to_string(), tep.clone()));
    let (target, target_rx): (Tgt, TargetRx) = match sc.runtime {
        RuntimeKind::Spdk => {
            let t = shared(SpdkTarget::new(
                0,
                net.clone(),
                tep.clone(),
                device.clone(),
                costs.clone(),
                Tracer::disabled(),
            ));
            let t2 = t.clone();
            let rx: TargetRx = Rc::new(move |k, from, pdu| SpdkTarget::on_pdu(&t2, k, from, pdu));
            (Tgt::Spdk(t), span_target_rx(&spans, Layer::NvmfTarget, rx))
        }
        RuntimeKind::Opf => {
            let t = shared(OpfTarget::new(
                0,
                net.clone(),
                tep.clone(),
                device.clone(),
                costs.clone(),
                target_config(&sc),
                Tracer::disabled(),
            ));
            let t2 = t.clone();
            let rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));
            (Tgt::Opf(t), span_target_rx(&spans, Layer::OpfTarget, rx))
        }
    };
    let target_rx = sample_backlog(&spans, &tep, target_rx);
    if plane.is_some() {
        match &target {
            Tgt::Spdk(t) => t.borrow_mut().set_recovery(true),
            Tgt::Opf(t) => t.borrow_mut().set_recovery(true),
        }
    }
    let shared_iep = (!sc.separate_nodes).then(|| net.add_endpoint("ini-node0"));
    if let Some(ep) = &shared_iep {
        endpoints.push(("pair0.ini_node_ep.".to_string(), ep.clone()));
    }
    let per_node = sc.ls_per_node + sc.tc_per_node;
    let retry = sc.faults.as_ref().and_then(|p| p.retry);
    for slot in 0..per_node {
        let iep = match &shared_iep {
            Some(ep) => ep.clone(),
            None => net.add_endpoint(format!("ini0-{slot}")),
        };
        let id = slot as u8;
        let class = if slot < sc.ls_per_node {
            ReqClass::LatencySensitive
        } else {
            ReqClass::ThroughputCritical
        };
        let qd = match class {
            ReqClass::LatencySensitive => sc.ls_qd,
            ReqClass::ThroughputCritical => sc.tc_qd,
        };
        let slot_tx = faulted_target_rx(&spans, &plane, slot, &target_rx);
        let ini = match &target {
            Tgt::Spdk(t) => {
                let i = shared(SpdkInitiator::new(
                    id,
                    qd,
                    net.clone(),
                    iep.clone(),
                    tep.clone(),
                    slot_tx,
                    costs.clone(),
                    Tracer::disabled(),
                ));
                if let Some(policy) = retry {
                    i.borrow_mut().set_retry(policy);
                }
                let i2 = i.clone();
                let rx: PduRx = Rc::new(move |k, pdu| SpdkInitiator::on_pdu(&i2, k, pdu));
                let rx = span_pdu_rx(&spans, Layer::NvmfInitiator, id, rx);
                let rx = faulted_pdu_rx(&spans, &plane, slot, id, rx);
                t.borrow_mut().connect(id, iep.clone(), rx);
                Ini::Spdk(i)
            }
            Tgt::Opf(t) => {
                let icfg = OpfInitiatorConfig {
                    window: sc.resolve_window(),
                    retry,
                    redrain_timeout: sc.faults.as_ref().and_then(|p| p.redrain_timeout),
                    ..OpfInitiatorConfig::default()
                };
                let i = shared(OpfInitiator::new(
                    id,
                    qd,
                    net.clone(),
                    iep.clone(),
                    tep.clone(),
                    slot_tx,
                    costs.clone(),
                    icfg,
                    Tracer::disabled(),
                ));
                let i2 = i.clone();
                let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
                let rx = span_pdu_rx(&spans, Layer::OpfInitiator, id, rx);
                let rx = faulted_pdu_rx(&spans, &plane, slot, id, rx);
                t.borrow_mut().connect(id, iep.clone(), rx);
                Ini::Opf(i)
            }
        };
        if sc.separate_nodes {
            endpoints.push((format!("ini{slot}.ep."), iep.clone()));
        }
        inis.push((slot as u64, ini.clone()));
        let (hist, count) = match class {
            ReqClass::LatencySensitive => (ls_hist.clone(), ls_count.clone()),
            ReqClass::ThroughputCritical => (tc_hist.clone(), tc_count.clone()),
        };
        let idx = slot as u64;
        let rng = Pcg32::new(sc.seed ^ (idx + 1).wrapping_mul(0x1357_9BDF));
        if let (Some(tspec), ReqClass::ThroughputCritical) = (&sc.traffic, class) {
            open.push(Rc::new(RefCell::new(OpenTenant {
                spans: spans.clone(),
                ini,
                tenant: id,
                gen: TenantTraffic::new(
                    tspec,
                    sc.seed,
                    slot - sc.ls_per_node,
                    sc.tc_per_node.max(1),
                ),
                pending: VecDeque::new(),
                payload: payload.clone(),
                default_blocks: sc.io_blocks.max(1),
                base_mix: sc.mix,
                rng,
                pattern: sc.pattern,
                n_addr: 0,
                lba_base: idx * 8192 * u64::from(span_blocks),
                lba_span: 8192 * u64::from(span_blocks),
                hist,
                win_start: warm,
                win_end: end,
                completed_in_win: count,
                offered_total: 0,
                done_total: 0,
                offered_win: 0,
                done_win: 0,
            })));
        } else {
            drivers.push((
                Rc::new(RefCell::new(Driver {
                    spans: spans.clone(),
                    ini,
                    tenant: id,
                    class,
                    mix: sc.mix,
                    io_blocks: sc.io_blocks.max(1),
                    pattern: sc.pattern,
                    rng,
                    n: 0,
                    lba_base: idx * 8192 * u64::from(span_blocks),
                    lba_span: 8192 * u64::from(span_blocks),
                    payload: payload.clone(),
                    hist,
                    win_start: warm,
                    win_end: end,
                    completed_in_win: count,
                })),
                qd,
                idx,
            ));
        }
    }

    start_drivers(&mut k, drivers);
    for (idx, t) in open.iter().enumerate() {
        let t = t.clone();
        let at = SimTime::from_micros((sc.ls_per_node + idx) as u64);
        k.schedule_at(at, move |k| {
            let gap = {
                let now_ns = k.now().as_nanos();
                t.borrow_mut().gen.next_gap_ns(now_ns)
            };
            let t2 = t.clone();
            k.schedule_in(SimDuration::from_nanos(gap), move |k| open_arrival(t2, k));
            open_drain(t, k);
        });
    }
    let targets = vec![target];
    let notif_at_warm = mark_warm(&mut k, &targets, warm);

    let settle_s = plane
        .as_ref()
        .map_or(0.0, |p| p.borrow().profile().settle_s);
    let settle_s = if sc.traffic.is_some() {
        settle_s.max(0.05)
    } else {
        settle_s
    };
    let horizon = if settle_s > 0.0 {
        end + SimDuration::from_secs_f64(settle_s)
    } else {
        end
    };
    Stack {
        k,
        sc,
        spans,
        end,
        horizon,
        ls_hist,
        tc_hist,
        ls_count,
        tc_count,
        targets,
        devices: vec![device],
        endpoints,
        inis,
        open,
        plane,
        notif_at_warm,
        cluster: None,
    }
}

/// Sample the target endpoint's uplink backlog at every target receive.
fn sample_backlog(spans: &Rc<Spans>, tep: &Shared<Endpoint>, rx: TargetRx) -> TargetRx {
    let (s, tep) = (spans.clone(), tep.clone());
    Rc::new(move |k: &mut Kernel, from: u8, pdu: Pdu| {
        let backlog = tep.borrow().uplink_backlog(k.now()).as_nanos();
        if backlog > s.uplink_backlog_max_ns.get() {
            s.uplink_backlog_max_ns.set(backlog);
        }
        rx(k, from, pdu)
    })
}

/// Start each closed loop, staggered a microsecond per tenant index.
fn start_drivers(k: &mut Kernel, drivers: Vec<(Rc<RefCell<Driver>>, usize, u64)>) {
    for (d, qd, idx) in drivers {
        k.schedule_at(SimTime::from_micros(idx), move |k| {
            for _ in 0..qd {
                issue(d.clone(), k);
            }
        });
    }
}

/// Record the targets' response count at the start of the window.
fn mark_warm(k: &mut Kernel, targets: &[Tgt], warm: SimTime) -> Rc<Cell<u64>> {
    let marker = Rc::new(Cell::new(0u64));
    let sums: Vec<Box<dyn Fn() -> u64>> = targets
        .iter()
        .map(|t| match t {
            Tgt::Spdk(t) => {
                let t = t.clone();
                Box::new(move || t.borrow().stats.resps_tx) as Box<dyn Fn() -> u64>
            }
            Tgt::Opf(t) => {
                let t = t.clone();
                Box::new(move || t.borrow().stats.resps_tx) as Box<dyn Fn() -> u64>
            }
        })
        .collect();
    let m = marker.clone();
    k.schedule_at(warm, move |_| m.set(sums.iter().map(|f| f()).sum()));
    marker
}

fn build_cluster(sc: &Scenario, spans: Rc<Spans>) -> Stack {
    let sc = sc.clone();
    let targets_n = sc.targets.max(1);
    let per_node = sc.ls_per_node + sc.tc_per_node;
    let mut k = Kernel::new(sc.seed);
    let net = Network::new(FabricConfig::preset(sc.speed.into()));
    let (costs, profile) = costs_and_profile(&sc);
    let plane = sc.faults.as_ref().map(|p| {
        let rng = k.rng().fork(0xFA17);
        shared(faults::FaultPlane::new(p.clone(), rng))
    });
    let warm = SimTime::from_nanos((sc.warmup_s * 1e9) as u64);
    let end = SimTime::from_nanos(((sc.warmup_s + sc.measure_s) * 1e9) as u64);
    let ls_hist = Rc::new(RefCell::new(Histogram::new()));
    let tc_hist = Rc::new(RefCell::new(Histogram::new()));
    let ls_count = Rc::new(Cell::new(0u64));
    let tc_count = Rc::new(Cell::new(0u64));
    let payload = Bytes::from(vec![0u8; BLOCK_SIZE * sc.io_blocks.max(1) as usize]);

    let mut tgts: Vec<Shared<OpfTarget>> = Vec::with_capacity(targets_n);
    let mut tgt_rxs: Vec<TargetRx> = Vec::with_capacity(targets_n);
    let mut tgt_eps: Vec<Shared<Endpoint>> = Vec::with_capacity(targets_n);
    let mut devices = Vec::with_capacity(targets_n);
    for t in 0..targets_n {
        let tep = net.add_endpoint(format!("tgt{t}"));
        let device = shared(NvmeDevice::new(
            profile.clone(),
            1 << 30,
            sc.seed ^ (t as u64).wrapping_mul(0x9E37_79B9),
        ));
        device.borrow_mut().set_store_data(false);
        let tgt = shared(OpfTarget::new(
            t as u32,
            net.clone(),
            tep.clone(),
            device.clone(),
            costs.clone(),
            target_config(&sc),
            Tracer::disabled(),
        ));
        tgt.borrow_mut().set_recovery(true);
        let t2 = tgt.clone();
        let rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));
        let rx = span_target_rx(&spans, Layer::OpfTarget, rx);
        tgt_rxs.push(sample_backlog(&spans, &tep, rx));
        tgts.push(tgt);
        tgt_eps.push(tep);
        devices.push(device);
    }
    let retry = sc
        .faults
        .as_ref()
        .and_then(|p| p.retry)
        .unwrap_or(RetryPolicy {
            timeout: SimDuration::from_micros(300),
            max_retries: 6,
        });
    let redrain = sc
        .faults
        .as_ref()
        .and_then(|p| p.redrain_timeout)
        .unwrap_or(SimDuration::from_micros(500));

    let mut place_policy = sc.placement.policy();
    let mut placed = vec![0usize; targets_n];
    let shared_iep = (!sc.separate_nodes).then(|| net.add_endpoint("ini-node0"));
    let mut home = Vec::with_capacity(per_node);
    let mut tenant_eps = Vec::with_capacity(per_node);
    let mut tenant_rxs: Vec<PduRx> = Vec::with_capacity(per_node);
    let mut opf_inis = Vec::with_capacity(per_node);
    let mut drivers = Vec::new();
    let mut inis = Vec::new();
    for slot in 0..per_node {
        let iep = match &shared_iep {
            Some(ep) => ep.clone(),
            None => net.add_endpoint(format!("ini0-{slot}")),
        };
        let id = slot as u8;
        let class = if slot < sc.ls_per_node {
            ReqClass::LatencySensitive
        } else {
            ReqClass::ThroughputCritical
        };
        let qd = match class {
            ReqClass::LatencySensitive => sc.ls_qd,
            ReqClass::ThroughputCritical => sc.tc_qd,
        };
        let t_home = place_policy.place(slot, targets_n, &placed);
        placed[t_home] += 1;
        let slot_tx = faulted_target_rx(&spans, &plane, slot, &tgt_rxs[t_home]);
        let icfg = OpfInitiatorConfig {
            window: sc.resolve_window(),
            retry: Some(retry),
            redrain_timeout: Some(redrain),
            ..OpfInitiatorConfig::default()
        };
        let i = shared(OpfInitiator::new(
            id,
            qd,
            net.clone(),
            iep.clone(),
            tgt_eps[t_home].clone(),
            slot_tx,
            costs.clone(),
            icfg,
            Tracer::disabled(),
        ));
        let i2 = i.clone();
        let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
        let rx = span_pdu_rx(&spans, Layer::OpfInitiator, id, rx);
        let rx = faulted_pdu_rx(&spans, &plane, slot, id, rx);
        tgts[t_home]
            .borrow_mut()
            .connect(id, iep.clone(), rx.clone());
        home.push(t_home);
        tenant_eps.push(iep.clone());
        tenant_rxs.push(rx);
        inis.push((slot as u64, Ini::Opf(i.clone())));
        opf_inis.push(i.clone());
        let (hist, count) = match class {
            ReqClass::LatencySensitive => (ls_hist.clone(), ls_count.clone()),
            ReqClass::ThroughputCritical => (tc_hist.clone(), tc_count.clone()),
        };
        let idx = slot as u64;
        drivers.push((
            Rc::new(RefCell::new(Driver {
                spans: spans.clone(),
                ini: Ini::Opf(i),
                tenant: id,
                class,
                mix: sc.mix,
                io_blocks: sc.io_blocks.max(1),
                pattern: sc.pattern,
                rng: Pcg32::new(sc.seed ^ (idx + 1).wrapping_mul(0x1357_9BDF)),
                n: 0,
                lba_base: idx * 8192 * u64::from(sc.io_blocks.max(1)),
                lba_span: 8192 * u64::from(sc.io_blocks.max(1)),
                payload: payload.clone(),
                hist,
                win_start: warm,
                win_end: end,
                completed_in_win: count,
            })),
            qd,
            idx,
        ));
    }

    let links_profiled = cluster::install_switched_topology(
        &net,
        &tenant_eps,
        &home,
        &tgt_eps,
        SimDuration::from_micros(2),
    );

    let mgr = shared(cluster::ClusterPriorityManager::new(tgts.clone()));
    tick_loop(mgr.clone(), spans.clone(), end, &mut k, warm);

    let mut engine = cluster::MigrationEngine::new();
    let mut cur = home.clone();
    for spec in &sc.migrations {
        let ti = spec.tenant;
        let (from, to) = (cur[ti], spec.to_target);
        if to == from {
            continue;
        }
        let m = cluster::Migration {
            tenant: ti as u8,
            lane: 0,
            at: warm + SimDuration::from_secs_f64(spec.at_s.max(0.0)),
            initiator: opf_inis[ti].clone(),
            source: tgts[from].clone(),
            dest: tgts[to].clone(),
            dest_ep: tgt_eps[to].clone(),
            ini_ep: tenant_eps[ti].clone(),
            to_dest_rx: faulted_target_rx(&spans, &plane, ti, &tgt_rxs[to]),
            from_dest_rx: tenant_rxs[ti].clone(),
            dest_shard: 0,
            state: cluster::MigrationState::Scheduled,
            history: Vec::new(),
            cmds_moved: 0,
            redriven: 0,
        };
        engine.schedule(&mut k, m, SimDuration::from_micros(100));
        cur[ti] = to;
    }
    mgr.borrow_mut().watch(engine.records());

    start_drivers(&mut k, drivers);
    let targets: Vec<Tgt> = tgts.into_iter().map(Tgt::Opf).collect();
    let notif_at_warm = mark_warm(&mut k, &targets, warm);
    let settle = sc.faults.as_ref().map_or(0.0, |p| p.settle_s).max(0.05);
    let horizon = end + SimDuration::from_secs_f64(settle);
    Stack {
        k,
        sc,
        spans,
        end,
        horizon,
        ls_hist,
        tc_hist,
        ls_count,
        tc_count,
        targets,
        devices,
        endpoints: Vec::new(),
        inis,
        open: Vec::new(),
        plane,
        notif_at_warm,
        cluster: Some(ClusterParts {
            mgr,
            engine,
            links_profiled,
            tgt_eps,
            shared_iep,
            tenant_eps,
        }),
    }
}

/// The cluster manager's periodic tick, every 500 µs through the window.
fn tick_loop(
    mgr: Shared<cluster::ClusterPriorityManager>,
    spans: Rc<Spans>,
    end: SimTime,
    k: &mut Kernel,
    at: SimTime,
) {
    if at > end {
        return;
    }
    k.schedule_at(at, move |k| {
        spans.time(Layer::Cluster, 0, || mgr.borrow_mut().tick());
        let next = k.now() + SimDuration::from_micros(500);
        tick_loop(mgr, spans, end, k, next);
    });
}

impl Stack {
    /// Run to the horizon and take the snapshot.
    pub fn run(mut self) -> Outcome {
        self.k.set_horizon(self.horizon);
        let s = self.spans.clone();
        while s.time(Layer::Kernel, 0, || self.k.step()) {
            let pending = self.k.events_pending();
            if pending > s.pending_max.get() {
                s.pending_max.set(pending);
            }
        }
        s.time(Layer::Snapshot, 0, || self.snapshot())
    }

    fn snapshot(&self) -> Outcome {
        let sc = &self.sc;
        let measure_secs = sc.measure_s;
        let tc_done = self.tc_count.get();
        let ls_done = self.ls_count.get();
        let notifications =
            self.targets.iter().map(Tgt::resps_tx).sum::<u64>() - self.notif_at_warm.get();
        let util = self
            .targets
            .iter()
            .map(|t| t.reactor_utilization(self.end))
            .sum::<f64>()
            / self.targets.len() as f64;
        let tc_hist = self.tc_hist.borrow();
        let ls_hist = self.ls_hist.borrow();
        let now = self.k.now();
        let mut m = Metrics::at(now);
        m.set("tc.iops", tc_done as f64 / measure_secs);
        m.set("tc.p50_us", tc_hist.percentile(0.50) as f64 / 1e3);
        m.set("tc.p99_us", tc_hist.percentile(0.99) as f64 / 1e3);
        m.set("tc.p9999_us", tc_hist.percentile(0.9999) as f64 / 1e3);
        m.set("tc.avg_us", tc_hist.mean() / 1e3);
        m.set("ls.iops", ls_done as f64 / measure_secs);
        m.set("ls.p50_us", ls_hist.percentile(0.50) as f64 / 1e3);
        m.set("ls.p99_us", ls_hist.percentile(0.99) as f64 / 1e3);
        m.set("ls.p9999_us", ls_hist.percentile(0.9999) as f64 / 1e3);
        m.set("ls.avg_us", ls_hist.mean() / 1e3);
        m.set("notifications", notifications as f64);
        m.set("completed", (tc_done + ls_done) as f64);
        m.set("reactor_util", util);
        m.set("events", self.k.events_executed() as f64);
        match &self.cluster {
            None => self.snapshot_single(&mut m, now),
            Some(c) => self.snapshot_cluster(c, &mut m, now),
        }
        Outcome {
            events: self.k.events_executed(),
            metrics: m,
        }
    }

    fn snapshot_single(&self, m: &mut Metrics, now: SimTime) {
        if self.sc.traffic.is_some() {
            let (mut offered, mut done) = (0u64, 0u64);
            let (mut offered_win, mut done_win) = (0u64, 0u64);
            let mut served = Vec::new();
            for t in &self.open {
                let s = t.borrow();
                offered += s.offered_total;
                done += s.done_total;
                offered_win += s.offered_win;
                done_win += s.done_win;
                served.push(s.done_win as f64 / s.gen.weight().max(1e-12));
            }
            m.set("traffic.offered", offered as f64);
            m.set("traffic.done", done as f64);
            m.set(
                "traffic.completion_ratio",
                if offered_win == 0 {
                    1.0
                } else {
                    done_win as f64 / offered_win as f64
                },
            );
            let spread = if served.len() < 2 {
                0.0
            } else {
                let max = served.iter().copied().fold(f64::MIN, f64::max);
                let min = served.iter().copied().fold(f64::MAX, f64::min);
                let mean = served.iter().sum::<f64>() / served.len() as f64;
                if mean <= 0.0 {
                    0.0
                } else {
                    (max - min) / mean
                }
            };
            m.set("traffic.fairness_spread", spread);
        }
        for (pair, target) in self.targets.iter().enumerate() {
            m.merge(&format!("pair{pair}.tgt."), &target.metrics(now));
        }
        for (pair, device) in self.devices.iter().enumerate() {
            m.merge(&format!("pair{pair}.dev."), &device.borrow().metrics(now));
        }
        for (prefix, ep) in &self.endpoints {
            m.merge(prefix, &ep.borrow().metrics(now));
        }
        for (idx, ini) in &self.inis {
            m.merge(&format!("ini{idx}."), &ini.metrics(now));
        }
        if let Some(p) = &self.plane {
            m.merge("faults.", &p.borrow().metrics(now));
            m.set("kernel.horizon_dropped", self.k.horizon_dropped() as f64);
            let r = self.recovery_totals();
            m.set("faults.retries", r[0] as f64);
            m.set("faults.retry_exhausted", r[1] as f64);
            m.set("faults.redrains", r[2] as f64);
            m.set("faults.dup_resps_suppressed", r[3] as f64);
            m.set("faults.offered", r[4] as f64);
            m.set("faults.goodput", r[5] as f64);
        }
    }

    fn snapshot_cluster(&self, c: &ClusterParts, m: &mut Metrics, now: SimTime) {
        for (t, tgt) in self.targets.iter().enumerate() {
            m.merge(&format!("tgt{t}."), &tgt.metrics(now));
        }
        for (t, device) in self.devices.iter().enumerate() {
            m.merge(&format!("dev{t}."), &device.borrow().metrics(now));
        }
        for (t, ep) in c.tgt_eps.iter().enumerate() {
            m.merge(&format!("tgt{t}_ep."), &ep.borrow().metrics(now));
        }
        match &c.shared_iep {
            Some(ep) => m.merge("ini_node_ep.", &ep.borrow().metrics(now)),
            None => {
                for (i, ep) in c.tenant_eps.iter().enumerate() {
                    m.merge(&format!("ini{i}.ep."), &ep.borrow().metrics(now));
                }
            }
        }
        for (idx, ini) in &self.inis {
            m.merge(&format!("ini{idx}."), &ini.metrics(now));
        }
        m.set("cluster.targets", self.targets.len() as f64);
        m.set("cluster.links_profiled", c.links_profiled as f64);
        let snap = c.mgr.borrow().snapshot();
        m.set("cluster.mgr_ticks", snap.ticks as f64);
        m.set("cluster.weight_updates", snap.weight_updates as f64);
        m.set("cluster.max_imbalance", snap.max_imbalance as f64);
        if snap.weight_decays > 0 {
            m.set("cluster.weight_decays", snap.weight_decays as f64);
        }
        if snap.migrating_skipped > 0 {
            m.set("cluster.migrating_skipped", snap.migrating_skipped as f64);
        }
        let tot = c.engine.totals();
        m.set("cluster.migrations_done", tot.done as f64);
        m.set("cluster.migrations_failed", tot.failed as f64);
        m.set("cluster.cmds_moved", tot.cmds_moved as f64);
        m.set("cluster.redriven", tot.redriven as f64);
        if let Some(p) = &self.plane {
            m.merge("faults.", &p.borrow().metrics(now));
            m.set("kernel.horizon_dropped", self.k.horizon_dropped() as f64);
        }
        let r = self.recovery_totals();
        m.set("recovery.retries", r[0] as f64);
        m.set("recovery.retry_exhausted", r[1] as f64);
        m.set("recovery.redrains", r[2] as f64);
        m.set("recovery.dup_resps_suppressed", r[3] as f64);
        m.set("recovery.offered", r[4] as f64);
        m.set("recovery.goodput", r[5] as f64);
    }

    /// `[retries, exhausted, redrains, dups, submitted, completed]`
    /// summed over every initiator.
    fn recovery_totals(&self) -> [u64; 6] {
        let mut r = [0u64; 6];
        for (_, ini) in &self.inis {
            let s = match ini {
                Ini::Spdk(i) => {
                    let s = &i.borrow().stats;
                    [
                        s.retries,
                        s.retry_exhausted,
                        0,
                        s.dup_resps_suppressed,
                        s.submitted,
                        s.completed,
                    ]
                }
                Ini::Opf(i) => {
                    let s = &i.borrow().stats;
                    [
                        s.retries,
                        s.retry_exhausted,
                        s.redrains,
                        s.dup_resps_suppressed,
                        s.submitted,
                        s.completed,
                    ]
                }
            };
            for (a, b) in r.iter_mut().zip(s) {
                *a += b;
            }
        }
        r
    }
}

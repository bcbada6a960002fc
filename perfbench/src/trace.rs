//! The traced run: every layer timed from outside, by wrapping the public
//! calls into each crate in spans, beside a real `Pipeline::run` whose
//! report the decomposed counts must equal.
//!
//! A session decomposes into `hypervisor.record` (`Recorder::run` with the
//! run-wide shared cache attached, as the pipeline does), `log.*` (frame
//! and segment codecs over the recorded batches), `replay.cr`
//! (`Replayer::run` verifying against the recorded digest), `replay.ar`
//! with one `replay.ar.case` per escalated case (`AlarmReplayer::resolve`),
//! `machine.digest` (`GuestVm::digest` on the CR's final VM), and
//! `core.pipeline` (the real `Pipeline::run`). Each pass then runs its
//! sessions through `Farm::run` (`farm.fleet`) and serially through
//! `Pipeline::run` (`farm.serial`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rnr_safe::hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_safe::log::{
    decode_frame, decode_segment, encode_frame, encode_segment, Category, FaultPlan, Record, Segment,
    DEFAULT_BATCH, DEFAULT_FRAMES_PER_SEGMENT,
};
use rnr_safe::machine::SharedPageCache;
use rnr_safe::replay::{AlarmReplayer, CaseKind, ReplayConfig, Replayer};
use rnr_safe::{Farm, Pipeline, PipelineConfig, PipelineReport, VIRTUAL_HZ};

use crate::stats::{median, ratio, self_time};
use crate::workload::{verdict_class, SessionPlan};
use crate::{farm_pass, session, Slot, Tally, Totals};

/// The per-layer metrics: name, unit, and for a ratio the base it divides
/// by.
pub const PER_LAYER: [(&str, &str, Option<&str>); 55] = [
    ("hypervisor.record_ms", "ms", None),
    ("hypervisor.record_mips", "Minsn/s", None),
    ("hypervisor.log_records", "count", None),
    ("hypervisor.context_switches", "count", None),
    ("hypervisor.vcycles.rdtsc", "vcycles", None),
    ("hypervisor.vcycles.pio_mmio", "vcycles", None),
    ("hypervisor.vcycles.interrupt", "vcycles", None),
    ("hypervisor.vcycles.network", "vcycles", None),
    ("hypervisor.vcycles.ras", "vcycles", None),
    ("ras.underflows", "count", None),
    ("ras.evictions", "count", None),
    ("ras.target_mismatches", "count", None),
    ("ras.backras_bytes", "bytes", None),
    ("vrt.cases", "count", None),
    ("vrt.dismissed_frac", "ratio", Some("vrt.cases")),
    ("log.frame_encode_ms", "ms", None),
    ("log.frame_decode_ms", "ms", None),
    ("log.segment_encode_ms", "ms", None),
    ("log.segment_decode_ms", "ms", None),
    ("log.framed_bytes", "bytes", None),
    ("log.compact_bytes", "bytes", None),
    ("log.transport_frames", "count", None),
    ("log.transport_faults", "count", None),
    ("replay.cr_ms", "ms", None),
    ("replay.cr_mips", "Minsn/s", None),
    ("replay.checkpoints_taken", "count", None),
    ("replay.checkpoints_live_max", "count", None),
    ("replay.alarms_seen", "count", None),
    ("replay.underflows_cancelled", "count", None),
    ("replay.cancel_ratio", "ratio", Some("replay.alarms_seen")),
    ("replay.cr_rewinds", "count", None),
    ("replay.ar_ms", "ms", None),
    ("replay.ar_case_ms_p50", "ms", Some("replay.ar_cases")),
    ("replay.ar_case_ms_max", "ms", Some("replay.ar_cases")),
    ("replay.ar_cases", "count", None),
    ("replay.ar_vcycles", "vcycles", None),
    ("replay.ar_retries", "count", None),
    ("detect_window_vcycles", "vcycles", None),
    ("machine.block_hits", "count", None),
    ("machine.block_builds", "count", None),
    ("machine.block_hit_ratio", "ratio", Some("machine.block_hits + machine.block_builds")),
    ("machine.page_flushes", "count", None),
    ("machine.shared_imports", "count", None),
    ("machine.trace_builds", "count", None),
    ("machine.trace_hits", "count", None),
    ("machine.trace_flushes", "count", None),
    ("machine.trace_fallbacks", "count", None),
    ("machine.trace_insns_per_hit", "insns", Some("machine.trace_hits")),
    ("machine.digest_us", "us", None),
    ("core.pipeline_ms", "ms", None),
    ("core.overlap_ratio", "ratio", Some("core.pipeline_ms")),
    ("farm.fleet_ms", "ms", None),
    ("farm.serial_ms", "ms", None),
    ("farm.speedup_vs_serial", "ratio", Some("farm.fleet_ms")),
    ("bench.trace_overhead_frac", "ratio", Some("farm.serial_ms")),
];

/// Spans whose self times make up the pipeline's work, for
/// `core.overlap_ratio`. Segment coding is left out because the default
/// pipeline keeps no durable log, and `machine.digest` because the record
/// and CR spans already compute their final digests.
const PIPELINE_LAYERS: [&str; 5] =
    ["hypervisor.record", "log.frame_encode", "log.frame_decode", "replay.cr", "replay.ar.case"];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Session the span belongs to (a farm pass counts as one session).
    pub session: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its index for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, session: u32, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span { name, session, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        session: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, session, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Self time of span `id` in milliseconds. Children open after their
    /// parent, so only later spans are searched.
    pub fn self_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: Vec<(u64, u64)> = self.spans[id + 1..]
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        self_time((s.start_ns, s.end_ns), &children) as f64 / 1e6
    }

    /// Every span as one JSON document with `header` fields in front.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"session\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.session, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-pass accumulation: sums over the pass's sessions, maxima, and the
/// alarm-case times.
#[derive(Debug, Default)]
struct Pass {
    sums: BTreeMap<&'static str, f64>,
    case_ms: Vec<f64>,
    layer_self_ms: f64,
    live_max: f64,
}

impl Pass {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// What the decomposition measured that the pipeline report must match.
struct Decomposed {
    record_cycles: u64,
    retired: u64,
    cr_cycles: u64,
    checkpoints_taken: u64,
    escalated: usize,
    classes: Vec<&'static str>,
}

/// The recorder configuration `Pipeline::run` derives from `cfg` (the
/// serial pipeline's: no span seeds). This and [`replay_config`] mirror the
/// pipeline's private derivations; a drift shows as a count mismatch in
/// [`check_counts`].
fn record_config(cfg: &PipelineConfig) -> RecordConfig {
    let mut rc = RecordConfig::new(RecordMode::Rec, cfg.seed, cfg.duration_insns);
    rc.ras_capacity = cfg.ras_capacity;
    rc.costs = cfg.costs;
    rc.stall_on_alarm = cfg.stall_on_alarm;
    rc.decode_cache = cfg.decode_cache;
    rc.block_engine = cfg.block_engine;
    rc.superblocks = cfg.superblocks;
    rc.vrt = cfg.vrt.clone();
    rc
}

/// The CR configuration `Pipeline::run` derives from `cfg`.
fn replay_config(cfg: &PipelineConfig) -> ReplayConfig {
    ReplayConfig {
        checkpoint_interval: cfg.checkpoint_interval_secs.map(|s| (s * VIRTUAL_HZ as f64) as u64),
        retain: cfg.retain,
        ras_capacity: cfg.ras_capacity,
        costs: cfg.costs,
        decode_cache: cfg.decode_cache,
        block_engine: cfg.block_engine,
        superblocks: cfg.superblocks,
        resilient: true,
        parallel_spans: cfg.parallel_spans,
        fault_plan: cfg.fault_plan.clone(),
        durable_log: cfg.durable_log.clone(),
        vrt: cfg.vrt.clone(),
        ..ReplayConfig::default()
    }
}

/// Runs one session layer by layer under `root`, adding its figures to
/// `pass`.
fn decompose(
    tr: &mut Tracer,
    sid: u32,
    root: usize,
    plan: &SessionPlan,
    pass: &mut Pass,
) -> Result<Decomposed, String> {
    let spec = &plan.spec;
    let shared = Arc::new(SharedPageCache::new());

    let (rec, rec_span) = tr.span("hypervisor.record", sid, Some(root), || {
        let mut recorder = Recorder::new(spec, record_config(&plan.config)).map_err(|e| e.to_string())?;
        recorder.attach_shared_cache(Arc::clone(&shared));
        Ok::<_, String>(recorder.run())
    });
    let rec = rec?;
    if let Some(fault) = rec.fault {
        return Err(format!("guest fault while recording: {fault:?}"));
    }
    let record_ms = tr.self_ms(rec_span);
    pass.add("hypervisor.record_ms", record_ms);
    pass.add("hypervisor.retired", rec.retired as f64);
    pass.add("hypervisor.log_records", rec.log.len() as f64);
    pass.add("hypervisor.context_switches", rec.context_switches as f64);
    for (name, category) in [
        ("hypervisor.vcycles.rdtsc", Category::Rdtsc),
        ("hypervisor.vcycles.pio_mmio", Category::PioMmio),
        ("hypervisor.vcycles.interrupt", Category::Interrupt),
        ("hypervisor.vcycles.network", Category::Network),
        ("hypervisor.vcycles.ras", Category::Ras),
    ] {
        pass.add(name, rec.attribution.for_category(category) as f64);
    }
    let ras = &rec.ras_counters;
    pass.add("ras.underflows", ras.underflows as f64);
    pass.add("ras.evictions", ras.evictions as f64);
    pass.add("ras.target_mismatches", ras.target_mismatches as f64);
    pass.add("ras.backras_bytes", ras.backras_bytes() as f64);

    let batches: Vec<&[Record]> = rec.log.records().chunks(DEFAULT_BATCH).collect();
    let (frames, enc) = tr.span("log.frame_encode", sid, Some(root), || {
        batches.iter().enumerate().map(|(seq, b)| encode_frame(seq as u64, b)).collect::<Vec<_>>()
    });
    let (decoded, dec) = tr.span("log.frame_decode", sid, Some(root), || {
        frames.iter().map(decode_frame).collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded.map_err(|e| format!("frame decode: {e}"))?;
    if decoded
        .iter()
        .enumerate()
        .any(|(seq, (s, records))| *s != seq as u64 || records.as_slice() != batches[seq])
    {
        return Err("frames did not decode to the recorded batches".to_string());
    }
    let segments: Vec<Segment> = decoded
        .chunks(DEFAULT_FRAMES_PER_SEGMENT)
        .map(|c| Segment { first_seq: c[0].0, frames: c.iter().map(|(_, r)| r.clone()).collect() })
        .collect();
    let (compact, seg_enc) = tr.span("log.segment_encode", sid, Some(root), || {
        segments.iter().map(|s| encode_segment(s, true)).collect::<Vec<_>>()
    });
    let (back, seg_dec) = tr.span("log.segment_decode", sid, Some(root), || {
        compact.iter().map(|b| decode_segment(b)).collect::<Result<Vec<_>, _>>()
    });
    if back.map_err(|e| format!("segment decode: {e}"))? != segments {
        return Err("segments did not decode to the recorded batches".to_string());
    }
    pass.add("log.frame_encode_ms", tr.self_ms(enc));
    pass.add("log.frame_decode_ms", tr.self_ms(dec));
    pass.add("log.segment_encode_ms", tr.self_ms(seg_enc));
    pass.add("log.segment_decode_ms", tr.self_ms(seg_dec));
    pass.add("log.framed_bytes", frames.iter().map(|f| f.len() as f64).sum());
    pass.add("log.compact_bytes", compact.iter().map(|b| b.len() as f64).sum());

    let replay_cfg = replay_config(&plan.config);
    let (cr_out, cr_span) = tr.span("replay.cr", sid, Some(root), || {
        let mut cr = Replayer::new(spec, Arc::clone(&rec.log), replay_cfg.clone());
        cr.attach_shared_cache(Arc::clone(&shared));
        cr.verify_against(rec.final_digest);
        cr.run()
    });
    let cr_out = cr_out.map_err(|e| format!("checkpointing replay: {e}"))?;
    if cr_out.verified != Some(true) {
        return Err("checkpointing replay did not verify".to_string());
    }
    let cr_ms = tr.self_ms(cr_span);
    pass.add("replay.cr_ms", cr_ms);
    pass.add("replay.cr_retired", cr_out.retired as f64);
    pass.add("replay.checkpoints_taken", cr_out.checkpoints_taken as f64);
    pass.live_max = pass.live_max.max(cr_out.checkpoints_live_max as f64);
    pass.add("replay.alarms_seen", cr_out.alarms_seen as f64);
    pass.add("replay.underflows_cancelled", cr_out.underflows_cancelled as f64);
    pass.add("replay.cr_rewinds", cr_out.recovery.rewinds as f64);

    // The CR already verified its final state against the recording; this
    // span times the CPU-and-memory digest alone.
    let (digest, digest_span) = tr.span("machine.digest", sid, Some(root), || cr_out.vm().digest());
    std::hint::black_box(digest);
    pass.add("machine.digest_us", tr.self_ms(digest_span) * 1e3);

    // The pipeline's alarm replayers run with the CR's configuration made
    // non-resilient, with no fault plan and no durable log.
    let ar_cfg =
        ReplayConfig { resilient: false, fault_plan: FaultPlan::default(), durable_log: None, ..replay_cfg };
    let ar_root = tr.open("replay.ar", sid, Some(root));
    let ar = AlarmReplayer::new(spec, Arc::clone(&rec.log)).with_config(ar_cfg).with_shared_cache(shared);
    let mut classes = Vec::with_capacity(cr_out.alarm_cases.len());
    let mut vrt_cases = 0.0;
    let mut vrt_dismissed = 0.0;
    for case in &cr_out.alarm_cases {
        let (resolved, case_span) = tr.span("replay.ar.case", sid, Some(ar_root), || ar.resolve(case));
        let (verdict, out) = resolved.map_err(|e| format!("alarm replay: {e}"))?;
        pass.case_ms.push(tr.ms(case_span));
        pass.add("replay.ar_vcycles", out.cycles as f64);
        let class = verdict_class(&verdict);
        if matches!(case.kind, CaseKind::Vrt(_)) {
            vrt_cases += 1.0;
            if class == "false-positive" {
                vrt_dismissed += 1.0;
            }
        }
        classes.push(class);
    }
    tr.close(ar_root);
    pass.add("replay.ar_ms", tr.ms(ar_root));
    pass.add("replay.ar_cases", cr_out.alarm_cases.len() as f64);
    pass.add("vrt.cases", vrt_cases);
    pass.add("vrt.dismissed", vrt_dismissed);

    Ok(Decomposed {
        record_cycles: rec.cycles,
        retired: rec.retired,
        cr_cycles: cr_out.cycles,
        checkpoints_taken: cr_out.checkpoints_taken,
        escalated: cr_out.alarm_cases.len(),
        classes,
    })
}

/// Checks that the decomposition measured the same work as the pipeline.
fn check_counts(d: &Decomposed, report: &PipelineReport) -> Result<(), String> {
    let pairs = [
        ("record cycles", d.record_cycles, report.record.cycles),
        ("retired instructions", d.retired, report.record.retired),
        ("CR cycles", d.cr_cycles, report.replay.cycles),
        ("checkpoints taken", d.checkpoints_taken, report.replay.checkpoints_taken),
        ("alarms escalated", d.escalated as u64, report.replay.alarms_escalated as u64),
    ];
    if let Some((what, got, want)) = pairs.iter().find(|(_, a, b)| a != b) {
        return Err(format!("decomposed {what} {got} != pipeline {want}"));
    }
    let classes: Vec<&str> = report.resolutions.iter().map(|r| verdict_class(&r.verdict)).collect();
    if classes != d.classes {
        return Err("decomposed verdict classes differ from the pipeline's".to_string());
    }
    Ok(())
}

/// Adds the figures only the real pipeline's report holds.
fn add_report_figures(pass: &mut Pass, report: &PipelineReport) {
    let b = &report.block_stats;
    for (name, v) in [
        ("machine.block_hits", b.hits),
        ("machine.block_builds", b.builds),
        ("machine.page_flushes", b.flushes),
        ("machine.shared_imports", b.shared_imports),
        ("machine.trace_builds", b.trace_builds),
        ("machine.trace_hits", b.trace_hits),
        ("machine.trace_flushes", b.trace_flushes),
        ("machine.trace_fallbacks", b.trace_fallbacks),
        ("machine.trace_insns", b.trace_insns),
        ("log.transport_frames", report.recovery.transport.frames_ok),
        ("log.transport_faults", report.recovery.transport.faults_detected),
        ("replay.ar_retries", report.recovery.ar_case_retries),
        ("detect_window_vcycles", report.detection.as_ref().map_or(0, |d| d.window_cycles)),
    ] {
        pass.add(name, v as f64);
    }
}

/// One traced pass over `slot`: every session decomposed and run through
/// `Pipeline::run`, then the pass through `Farm::run` and serially.
fn traced_pass(tr: &mut Tracer, next_sid: &mut u32, slot: &mut Slot, farm: &Farm, tally: &mut Tally) -> Pass {
    let mut pass = Pass::default();
    for k in 0..slot.plans.len() {
        let sid = *next_sid;
        *next_sid += 1;
        let root = tr.open("session", sid, None);
        let plan = &slot.plans[k];
        let decomposed = decompose(tr, sid, root, plan, &mut pass);
        let (spec, config) = (plan.spec.clone(), plan.config.clone());
        let (result, pipe) = tr.span("core.pipeline", sid, Some(root), || Pipeline::new(spec, config).run());
        tr.close(root);
        pass.add("core.pipeline_ms", tr.ms(pipe));
        pass.layer_self_ms += (root + 1..tr.spans.len())
            .filter(|&i| PIPELINE_LAYERS.contains(&tr.spans[i].name))
            .map(|i| tr.self_ms(i))
            .sum::<f64>();
        let checked = match (decomposed, result) {
            (Ok(d), Ok(report)) => {
                add_report_figures(&mut pass, &report);
                check_counts(&d, &report).and_then(|()| slot.check(k, &report))
            }
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(format!("pipeline: {e}")),
        };
        tally.record(slot.plans[k].kind.label(), checked);
    }

    // The same sessions through the farm and serially; both are checked
    // like any other session, and neither adds to the traced figures.
    let sid = *next_sid;
    *next_sid += 1;
    let mut untraced = Totals::default();
    let ((), fleet) = tr.span("farm.fleet", sid, None, || farm_pass(slot, farm, tally, &mut untraced));
    let ((), serial) = tr.span("farm.serial", sid, None, || {
        for k in 0..slot.plans.len() {
            session(slot, k, tally, &mut untraced);
        }
    });
    pass.add("farm.fleet_ms", tr.ms(fleet));
    pass.add("farm.serial_ms", tr.ms(serial));
    pass
}

/// The per-layer figures of one pass, derived ratios included. Returns the
/// names of ratios whose base was zero.
fn pass_figures(pass: &Pass) -> (BTreeMap<&'static str, f64>, Vec<&'static str>) {
    // A session that failed part way leaves later layers unmeasured; they
    // count as 0 and the failure is in the tally.
    let mut out: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(name, _, _)| (name, pass.get(name))).collect();
    let mut undefined = Vec::new();
    let mut derived = |name: &'static str, value: Option<f64>| {
        if value.is_none() {
            undefined.push(name);
        }
        out.insert(name, value.unwrap_or(0.0));
    };
    let p = |name| pass.get(name);
    derived("hypervisor.record_mips", ratio(p("hypervisor.retired"), p("hypervisor.record_ms") * 1e3));
    derived("replay.cr_mips", ratio(p("replay.cr_retired"), p("replay.cr_ms") * 1e3));
    derived("vrt.dismissed_frac", ratio(p("vrt.dismissed"), p("vrt.cases")));
    derived("replay.cancel_ratio", ratio(p("replay.underflows_cancelled"), p("replay.alarms_seen")));
    derived(
        "machine.block_hit_ratio",
        ratio(p("machine.block_hits"), p("machine.block_hits") + p("machine.block_builds")),
    );
    derived("machine.trace_insns_per_hit", ratio(p("machine.trace_insns"), p("machine.trace_hits")));
    derived("core.overlap_ratio", ratio(pass.layer_self_ms, p("core.pipeline_ms")));
    derived("farm.speedup_vs_serial", ratio(p("farm.serial_ms"), p("farm.fleet_ms")));
    derived("replay.ar_case_ms_p50", (!pass.case_ms.is_empty()).then(|| median(&pass.case_ms)));
    derived("replay.ar_case_ms_max", pass.case_ms.iter().copied().reduce(f64::max));
    out.insert("replay.checkpoints_live_max", pass.live_max);
    (out, undefined)
}

/// The traced run's result: per-layer medians over passes, the ratios
/// whose base was zero in some pass, and the passes made.
pub struct Traced {
    /// Median of each per-layer metric over the passes.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Ratios left undefined (zero base) in at least one pass.
    pub undefined: BTreeSet<&'static str>,
    /// Passes made (the sample count of every median).
    pub passes: usize,
    /// The spans of the run.
    pub tracer: Tracer,
}

/// Runs traced passes over the slots, round robin, until `seconds` have
/// passed.
pub fn run(slots: &mut [Slot], seconds: f64, farm: &Farm, tally: &mut Tally) -> Traced {
    let mut tr = Tracer::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut undefined = BTreeSet::new();
    let mut next_sid = 0;
    let started = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let n = slots.len();
        let pass = traced_pass(&mut tr, &mut next_sid, &mut slots[passes % n], farm, tally);
        passes += 1;
        let (figures, undef) = pass_figures(&pass);
        undefined.extend(undef);
        for (name, v) in figures {
            samples.entry(name).or_default().push(v);
        }
    }
    let mut metrics: BTreeMap<&'static str, f64> = samples.iter().map(|(&k, v)| (k, median(v))).collect();
    let overhead = ratio(metrics["core.pipeline_ms"], metrics["farm.serial_ms"]).map(|r| r - 1.0);
    if overhead.is_none() {
        undefined.insert("bench.trace_overhead_frac");
    }
    metrics.insert("bench.trace_overhead_frac", overhead.unwrap_or(0.0));
    Traced { metrics, undefined, passes, tracer: tr }
}

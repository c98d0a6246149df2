//! One workload, start to finish: launch worlds, reduce what they
//! report to the named metrics, check the outputs, print.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::launch::{launch, WorldKind, WorldOutput};
use crate::probes::Roofs;
use crate::spec::{self, Backend, Workload, MIN_WORLDS, TIMED_STEPS, WARMUP_STEPS};
use crate::stats::{favourable_quartile, mean, median, spread, tail_percentile};
use crate::trace::{self_times, Span, ROOT_SPAN};
use crate::world::SERIAL_BUDGET_CELLS;

/// How a rank dies of the periodic-wrap defect in
/// `hacc_domain::try_refresh`: a coordinate a hair below zero wraps, in
/// f64, to just under the box length, rounds to exactly the box length
/// as f32, and is then owned by rank 0 while lying a whole box outside
/// its slab. About one realization in thirty meets it within six steps.
/// A realization that does is not an input the program can run, so the
/// benchmark takes the next one and says so (`input_reseeds`); any
/// other death of a rank is a failure.
const KNOWN_WRAP_DEFECT: &str = "active particle drifted outside the deposit halo";
const MAX_RESEEDS: u64 = 3;

/// The seed of the initial conditions: `--seed` itself, or the
/// `reseeds`-th replacement for it.
fn ic_seed(seed: u64, reseeds: u64) -> u64 {
    seed.wrapping_add(reseeds.wrapping_mul(1_000_003))
}

/// Stop launching worlds here even if the time asked for is not used
/// up; a much faster program should not turn one run into hundreds of
/// process launches.
const MAX_WORLDS: usize = 64;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// The favourable quartile of the samples (see `README.md`).
    pub value: f64,
    pub median: f64,
    /// Quartile distance over the median of the samples.
    pub spread: f64,
    /// Number of samples.
    pub n: usize,
}

pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, in words; empty when the run is correct.
    pub problems: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(percentile, value)` of `step_s`: the highest with ten samples beyond.
    pub step_tail: Option<(f64, f64)>,
    pub worlds: usize,
    /// Realizations skipped because they meet `KNOWN_WRAP_DEFECT`.
    pub input_reseeds: u64,
    pub digest: Option<u64>,
    /// Per-layer metrics by name: the counts from the first timed
    /// world and, when traced, the layer times.
    pub per_layer: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn e2e(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// The paper's Table II/III figure, the inverse of the throughput.
    pub fn ns_per_particle_substep(&self) -> f64 {
        1e9 / self.e2e("particle_substeps_per_s")
    }

    /// Identifier shared by every span of this run in `trace.jsonl`.
    pub fn trace_id(&self) -> String {
        format!("{}#seed{}", self.workload.name, self.seed)
    }
}

/// Mean over ranks of each rank's median: ranks do the same work, and
/// the median drops a rank's odd sample.
fn layer_value(out: &WorldOutput, name: &str) -> f64 {
    let per_rank: Vec<f64> = out.per_rank(name).map(median).collect();
    if per_rank.is_empty() {
        0.0
    } else {
        mean(&per_rank)
    }
}

fn max_over_ranks(out: &WorldOutput, name: &str) -> f64 {
    out.per_rank(name)
        .filter_map(|v| v.first().copied())
        .fold(0.0, f64::max)
}

/// Per-world end-to-end numbers.
struct WorldSummary {
    setup_s: f64,
    step_s: Vec<f64>,
    substeps_per_s: f64,
    peak_rss_mib: f64,
    steps_ok: u64,
}

fn summarize(wl: &Workload, smoke: bool, out: &WorldOutput) -> WorldSummary {
    let step_s = out.rank0("step_s").to_vec();
    let work = (wl.particles(smoke) * wl.subcycles * step_s.len()) as f64;
    WorldSummary {
        setup_s: max_over_ranks(out, "setup_s"),
        substeps_per_s: work / step_s.iter().sum::<f64>(),
        peak_rss_mib: max_over_ranks(out, "peak_rss_kib") / 1024.0,
        steps_ok: out.rank0("step_ok").iter().filter(|&&ok| ok == 1.0).count() as u64,
        step_s,
    }
}

/// Run `wl`. Untraced: timed worlds until `seconds` of timed steps have
/// been measured (at least `MIN_WORLDS`), then the memory world.
/// Traced: one timed world for the counts and the overhead ratio, then
/// one traced world.
pub fn run_workload(
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    roofs: Option<&Roofs>,
) -> std::io::Result<WorkloadResult> {
    let min_worlds = if trace || smoke { 1 } else { MIN_WORLDS };
    let mut res = WorkloadResult {
        workload: wl,
        seed,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        end_to_end: Vec::new(),
        step_tail: None,
        worlds: 0,
        input_reseeds: 0,
        digest: None,
        per_layer: BTreeMap::new(),
        spans: Vec::new(),
    };

    // Launches a world and books its steps and checks; the bool is
    // false when it must be the last.
    let mut digests = Vec::new();
    let mut world = |res: &mut WorkloadResult,
                     kind: WorldKind|
     -> std::io::Result<(WorldOutput, WorldSummary, bool)> {
        let mut out = launch(wl, ic_seed(seed, res.input_reseeds), kind, smoke)?;
        // The trajectory is fixed by the inputs, so only a run's first
        // world can meet the defect.
        while res.worlds == 0
            && res.input_reseeds < MAX_RESEEDS
            && out.panics.iter().any(|p| p.contains(KNOWN_WRAP_DEFECT))
        {
            res.input_reseeds += 1;
            out = launch(wl, ic_seed(seed, res.input_reseeds), kind, smoke)?;
        }
        let s = summarize(wl, smoke, &out);
        let planned = (WARMUP_STEPS + kind.timed_steps()) as u64;
        res.worlds += 1;
        res.attempted += planned;
        res.failed += planned - s.steps_ok.min(planned);
        if !out.clean_exit {
            res.problems
                .push("a rank process exited with an error".into());
        }
        if out.clean_exit && out.rank0("gather_ok") != [1.0] {
            res.problems
                .push("gathered positions are not one per particle id".into());
        }
        if kind != WorldKind::Memory {
            // Same inputs, same number of steps: the same bits.
            digests.extend(out.digest);
            if digests.windows(2).any(|w| w[0] != w[1]) {
                res.problems
                    .push("two worlds on the same inputs ended in different states".into());
            }
            res.digest = digests.first().copied();
        }
        let go_on = res.problems.is_empty() && res.failed == 0;
        Ok((out, s, go_on))
    };

    let mut timed = Vec::new();
    let mut counts_from = None;
    let mut measured = 0.0;
    let fill = !trace && !smoke;
    while timed.len() < min_worlds || (fill && measured < seconds && timed.len() < MAX_WORLDS) {
        let (out, s, go_on) = world(&mut res, WorldKind::Timed)?;
        measured += s.step_s.iter().sum::<f64>();
        timed.push(s);
        counts_from.get_or_insert(out);
        if !go_on {
            break;
        }
    }
    if let Some(out) = &counts_from {
        for m in &spec::COUNTS {
            // Sum over the ranks that report: one for the in-process
            // machine's shared counters, all for per-process ones.
            // (`sum()` of no floats is -0.0; fold from +0.0 instead.)
            let total = out.per_rank(m.name).flatten().fold(0.0, |acc, v| acc + v);
            let per_step = if m.name.starts_with("short.") {
                TIMED_STEPS as f64
            } else {
                1.0
            };
            res.per_layer.insert(m.name, total / per_step);
        }
    }

    let mut rss_mib = Vec::new();
    if trace && res.problems.is_empty() {
        let (out, s, _) = world(&mut res, WorldKind::Traced)?;
        if wl.backend != Backend::Serial {
            match out.rank0("check.serial_dev_cells").first() {
                Some(&dev) if dev <= SERIAL_BUDGET_CELLS => {}
                Some(&dev) => res.problems.push(format!(
                    "distributed run is {dev} cells from the serial engine after {WARMUP_STEPS} steps (budget {SERIAL_BUDGET_CELLS})"
                )),
                None => res.problems.push("the serial reference check did not report".into()),
            }
        }
        let base = timed.first().map_or(f64::NAN, |u| median(&u.step_s));
        res.per_layer.extend(layer_metrics(&out, &s, base, roofs));
        res.spans = out.spans;
        res.spans.push(Span {
            id: ROOT_SPAN,
            parent: 0,
            name: "workload".into(),
            rank: 0,
            step: -1,
            start_ns: 0,
            end_ns: out.wall_ns,
            attrs: Vec::new(),
        });
        // The driver reads per-layer metrics from this pass. Its
        // end-to-end numbers are the traced world's own, and not gated.
        rss_mib.push(s.peak_rss_mib);
        timed = vec![s];
    } else if res.problems.is_empty() {
        let (_, s, _) = world(&mut res, WorldKind::Memory)?;
        rss_mib.push(s.peak_rss_mib);
    }

    let per_world = |f: fn(&WorldSummary) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let steps: Vec<f64> = timed
        .iter()
        .flat_map(|w| w.step_s.iter().copied())
        .collect();
    res.step_tail = tail_percentile(&steps);
    let samples = [
        steps,
        per_world(|w| w.substeps_per_s),
        rss_mib,
        per_world(|w| w.setup_s),
    ];
    res.end_to_end = spec::END_TO_END
        .iter()
        .zip(samples)
        .map(|(m, v)| EndToEnd {
            name: m.name,
            unit: m.unit,
            value: favourable_quartile(&v, m.better == "lower"),
            median: median(&v),
            spread: spread(&v),
            n: v.len(),
        })
        .collect();
    if res
        .end_to_end
        .iter()
        .any(|m| m.value.is_nan() || m.value <= 0.0)
    {
        res.problems
            .push("an end-to-end metric is missing or zero".into());
    }
    if !res.problems.is_empty() {
        // A failed end-of-run check fails the whole workload.
        res.failed = res.attempted;
    }
    Ok(res)
}

/// The per-layer times of a traced world. `untraced_step_s` is the
/// median step of the untraced world run just before it.
fn layer_metrics(
    out: &WorldOutput,
    s: &WorldSummary,
    untraced_step_s: f64,
    roofs: Option<&Roofs>,
) -> BTreeMap<&'static str, f64> {
    let step_s = median(&s.step_s);
    let mut layers = BTreeMap::new();
    for m in &spec::LAYER_TIMES {
        let value = match m.name {
            "short.kernel_frac_of_peak" => {
                let flops = layer_value(out, "short.interactions_per_s")
                    * hacc::short::FLOPS_PER_INTERACTION as f64;
                roofs.map_or(f64::NAN, |r| flops / r.peak_flops_1t)
            }
            "comm.step_skew_s" => {
                // Per step: last rank to reach the closing barrier
                // minus the first.
                let arrivals: Vec<&[f64]> = out.per_rank("arrive_ns").collect();
                let skews: Vec<f64> = (0..s.step_s.len())
                    .map(|i| {
                        let at = arrivals.iter().filter_map(|a| a.get(i));
                        let (lo, hi) =
                            at.fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
                        (hi - lo).max(0.0) / 1e9
                    })
                    .collect();
                median(&skews)
            }
            "core.unaccounted_s" => step_s - layer_value(out, "reported.total_s"),
            "setup.bringup_s" => max_over_ranks(out, m.name),
            "machine.peak_flops_1t" => roofs.map_or(f64::NAN, |r| r.peak_flops_1t),
            "machine.stream_triad_gbs" => roofs.map_or(f64::NAN, |r| r.triad_gbs),
            "replay_coverage" => layer_value(out, "replay.covered_s") / step_s,
            "trace_overhead" => step_s / untraced_step_s,
            name => layer_value(out, name),
        };
        layers.insert(m.name, value);
    }
    layers
}

fn print_metric(wl: &str, name: &str, value: f64, unit: &str, note: &str) {
    println!("{wl} {name} {value} {unit}{note}");
}

/// End-to-end metrics, one line per `workload metric value unit`.
pub fn print_end_to_end(res: &WorkloadResult) {
    let wl = res.workload.name;
    for m in &res.end_to_end {
        let mut note = format!("  (favourable quartile of {}; median {}", m.n, m.median);
        if let ("step_s", Some((pct, tail))) = (m.name, res.step_tail) {
            note.push_str(&format!("; p{pct:.0} {tail}"));
        }
        note.push(')');
        print_metric(wl, m.name, m.value, m.unit, &note);
    }
    let ns = res.ns_per_particle_substep();
    print_metric(wl, "ns_per_particle_substep", ns, "ns", "");
}

/// Per-layer metrics the result holds: counts from an untraced pass,
/// counts, times and the span table from a traced one.
pub fn print_layers(res: &WorkloadResult) {
    let wl = res.workload.name;
    for m in spec::per_layer() {
        if let Some(&value) = res.per_layer.get(m.name) {
            print_metric(wl, m.name, value, m.unit, "");
        }
    }
    if !res.spans.is_empty() {
        print_span_table(wl, &res.spans);
    }
}

pub fn print_verdict(res: &WorkloadResult) {
    let wl = res.workload.name;
    if res.input_reseeds > 0 {
        println!(
            "{wl} input_reseeds {}  (initial conditions from seed {}: earlier realizations meet the periodic-wrap defect of hacc_domain::try_refresh)",
            res.input_reseeds,
            ic_seed(res.seed, res.input_reseeds)
        );
    }
    println!(
        "{wl} steps_failed/steps_attempted {}/{}",
        res.failed, res.attempted
    );
    for p in &res.problems {
        println!("{wl} FAILED: {p}");
    }
}

/// Total and self time per span name, over all ranks.
fn print_span_table(wl: &str, spans: &[Span]) {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let row = by_name.entry(&s.name).or_default();
        row.0 += 1;
        row.1 += s.seconds();
        row.2 += own[&s.id] as f64 / 1e9;
    }
    for (name, (n, total, own)) in by_name {
        println!("{wl} span {name} n={n} total_s={total:.6} self_s={own:.6}");
    }
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The driver's result line: end-to-end metrics untraced, per-layer
/// metrics traced.
pub fn result_line(res: &WorkloadResult, trace: bool) -> String {
    let metrics: Vec<(&str, Json)> = if trace {
        spec::per_layer()
            .map(|m| {
                let v = res.per_layer.get(m.name).copied().unwrap_or(f64::NAN);
                (m.name, metric_obj(v, m.unit))
            })
            .collect()
    } else {
        res.end_to_end
            .iter()
            .map(|m| (m.name, metric_obj(m.value, m.unit)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(res.correct())),
        ("attempted", Json::Num(res.attempted as f64)),
        ("failed", Json::Num(res.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

/// A workload's entry in a results file: the untraced pass's end-to-end
/// metrics and counts, the traced pass's layer times.
pub fn results_entry(untraced: &WorkloadResult, traced: &WorkloadResult) -> Json {
    let e2e = untraced.end_to_end.iter().map(|m| {
        let mut fields = vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("median", Json::Num(m.median)),
            ("spread", Json::Num(m.spread)),
            ("n", Json::Num(m.n as f64)),
        ];
        if let ("step_s", Some((pct, tail))) = (m.name, untraced.step_tail) {
            fields.push(("tail_percentile", Json::Num(pct)));
            fields.push(("tail_value", Json::Num(tail)));
        }
        (m.name, Json::obj(fields))
    });
    let table = |values: &BTreeMap<&'static str, f64>, defs: &[spec::Metric]| {
        Json::obj(
            defs.iter()
                .filter_map(|m| Some((m.name, metric_obj(*values.get(m.name)?, m.unit)))),
        )
    };
    let problems = untraced.problems.iter().chain(&traced.problems);
    Json::obj([
        ("why", Json::str(untraced.workload.why)),
        (
            "correct",
            Json::Bool(untraced.correct() && traced.correct()),
        ),
        (
            "steps_attempted",
            Json::Num((untraced.attempted + traced.attempted) as f64),
        ),
        (
            "steps_failed",
            Json::Num((untraced.failed + traced.failed) as f64),
        ),
        ("problems", Json::Arr(problems.map(Json::str).collect())),
        ("worlds", Json::Num(untraced.worlds as f64)),
        ("input_reseeds", Json::Num(untraced.input_reseeds as f64)),
        (
            "digest",
            untraced
                .digest
                .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
        ),
        ("end_to_end", Json::obj(e2e)),
        (
            "ns_per_particle_substep",
            metric_obj(untraced.ns_per_particle_substep(), "ns"),
        ),
        ("counts", table(&untraced.per_layer, &spec::COUNTS)),
        ("per_layer", table(&traced.per_layer, &spec::LAYER_TIMES)),
    ])
}

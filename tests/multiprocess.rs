//! Real multi-process fault tolerance over the socket transport.
//!
//! These tests spawn the `hacc-mprun` launcher, which rendezvouses N
//! actual OS processes over loopback TCP and SIGKILLs one of them
//! mid-run per the fault plan. The in-process machine's recovery
//! guarantees must hold unchanged when the "rank" that dies is a real
//! process and the replacement is a freshly spawned one.

use std::path::{Path, PathBuf};
use std::process::Command;

use hacc::analysis::PowerSpectrum;
use hacc::comm::FaultPlan;
use hacc::core::checkpoint::{checkpoint_path, complete_sets};
use hacc::core::{run_resilient, InvariantConfig, ResilienceConfig, SimConfig, SolverKind};
use hacc::cosmo::{Cosmology, LinearPower, Transfer};
use hacc::genio::Snapshot;

const MPRUN: &str = env!("CARGO_BIN_EXE_hacc-mprun");

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hacc_mprun_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read_json(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()))
}

/// Pull an integer field out of a flat JSON object without a parser.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!(r#""{key}":"#);
    let at = body.find(&pat).unwrap_or_else(|| panic!("no {key} in {body}"));
    let rest = &body[at + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|_| panic!("bad {key} in {body}"))
}

/// Four OS processes running epoch barriers; one SIGKILLed mid-schedule.
/// Every survivor must observe the failure within a deadline and must be
/// handed `RankFailed` — not a hang — when probing the dead rank.
#[test]
fn sigkill_mid_barrier_is_detected_by_survivors() {
    const RANKS: usize = 4;
    const VICTIM: usize = 2;
    let out = scratch("barrier");
    let status = Command::new(MPRUN)
        .args([
            "--ranks", "4",
            "--scenario", "barrier",
            "--seed", "7",
            "--kill", "2@5",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("launch mprun");
    assert!(status.success(), "mprun barrier run failed: {status:?}");

    let hub = read_json(&out.join("hub_report.json"));
    assert!(
        hub.contains(r#""killed":[{"rank":2,"step":5}]"#),
        "hub must record the SIGKILL: {hub}"
    );

    for rank in (0..RANKS).filter(|&r| r != VICTIM) {
        let body = read_json(&out.join(format!("detect_rank{rank}.json")));
        assert_eq!(json_u64(&body, "victim"), VICTIM as u64, "{body}");
        // The victim was killed at its step-5 beat, so its last completed
        // epoch is 4 — the failure epoch every survivor must agree on.
        assert_eq!(json_u64(&body, "epoch"), 4, "{body}");
        // Detection is driven by the monitor's scan cadence (~200 ms at
        // default config); 30 s means "did not hang", with slack for CI.
        assert!(
            json_u64(&body, "detect_ms") < 30_000,
            "rank {rank} detection too slow: {body}"
        );
        // The probe of the corpse must fail fast from mirrored detector
        // state, well inside its own 5 s receive deadline.
        assert!(
            json_u64(&body, "probe_ms") < 5_000,
            "rank {rank} probe of dead rank stalled: {body}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

// -- acceptance: socket-backend tier-0 recovery vs fault-free run ------

fn cfg32() -> SimConfig {
    SimConfig {
        ng: 32,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.26,
        steps: 4,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    }
}

fn ics32() -> hacc::ics::IcsRealization {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    hacc::ics::zeldovich(16, 64.0, &power, 0.2, 31)
}

fn fault_seed() -> u64 {
    std::env::var("HACC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9)
}

fn momentum_and_ke(dir: &Path, step: u64, ranks: usize) -> ([f64; 3], f64) {
    let mut p = [0.0f64; 3];
    let mut ke = 0.0f64;
    for rank in 0..ranks {
        let snap = Snapshot::read_file(&checkpoint_path(dir, step, rank, ranks)).unwrap();
        let v: Vec<&Vec<f32>> = ["vx", "vy", "vz"]
            .iter()
            .map(|c| snap.f32_fields.get(*c).expect("velocity column"))
            .collect();
        for ((&x, &y), &z) in v[0].iter().zip(v[1]).zip(v[2]) {
            let (vx, vy, vz) = (f64::from(x), f64::from(y), f64::from(z));
            p[0] += vx;
            p[1] += vy;
            p[2] += vz;
            ke += 0.5 * (vx * vx + vy * vy + vz * vz);
        }
    }
    (p, ke)
}

fn measure_pk(positions: &[(u64, [f32; 3])]) -> PowerSpectrum {
    let xs: Vec<f32> = positions.iter().map(|&(_, p)| p[0]).collect();
    let ys: Vec<f32> = positions.iter().map(|&(_, p)| p[1]).collect();
    let zs: Vec<f32> = positions.iter().map(|&(_, p)| p[2]).collect();
    PowerSpectrum::measure(&xs, &ys, &zs, 64.0, 32, 8)
}

/// Acceptance: the same seeded-kill scenario the in-process backend
/// passes, with a real SIGKILLed child process. The run must detect the
/// death over the socket transport, Tier-0 reconstruct online, rejoin a
/// respawned OS process as a blank replacement, and land on the
/// fault-free trajectory: exact particle count, gapless ids, momentum
/// and P(k) within the same tolerances as tests/resilience.rs.
#[test]
fn sigkilled_process_recovers_online_to_fault_free_trajectory() {
    const R4: usize = 4;
    let seed = fault_seed();
    let victim = (seed as usize) % R4;
    let kill_step = 3 + (seed % 2); // after the step-2 checkpoint set exists

    // Fault-free reference on the in-process backend: the trajectory is
    // a property of the physics, not of the transport underneath.
    let dir_clean = scratch("sim_clean");
    let realization = ics32();
    let expected = realization.len();
    let mut rc = ResilienceConfig::new(R4, &dir_clean);
    rc.invariants = Some(InvariantConfig::default());
    rc.retain = Some(2);
    let clean = run_resilient(cfg32(), &realization, &rc, &FaultPlan::none())
        .expect("clean reference run");
    assert_eq!(clean.attempts, 1);

    // The faulty run: four OS processes over loopback TCP, the victim
    // SIGKILLed by the hub at its kill-step heartbeat.
    let out = scratch("sim_faulty");
    let status = Command::new(MPRUN)
        .args([
            "--ranks".into(), R4.to_string(),
            "--scenario".into(), "sim".to_string(),
            "--seed".into(), seed.to_string(),
            "--kill".into(), format!("{victim}@{kill_step}"),
            "--out".into(), out.display().to_string(),
        ])
        .status()
        .expect("launch mprun");
    assert!(status.success(), "mprun sim run failed: {status:?}");

    // The hub killed exactly the planned victim and respawned it.
    let hub = read_json(&out.join("hub_report.json"));
    assert!(
        hub.contains(&format!(r#""killed":[{{"rank":{victim},"step":{kill_step}}}]"#)),
        "hub kill record wrong: {hub}"
    );
    assert!(
        hub.contains(&format!(r#""respawned":[{victim}]"#)),
        "victim was not respawned: {hub}"
    );
    assert!(hub.contains(r#""exit_failures":[]"#), "children failed: {hub}");

    // A survivor's timeline shows heartbeat detection and online Tier-0
    // reconstruction — no rollback, no relaunch.
    let reporter = usize::from(victim == 0); // a rank that lived through the kill
    let timeline = read_json(&out.join(format!("timeline_rank{reporter}.json")));
    assert!(
        timeline.contains(&format!(
            r#""event":"rank_failure_detected","step":{kill_step},"rank":{victim},"epoch":{}"#,
            kill_step - 1
        )),
        "heartbeat detection missing: {timeline}"
    );
    assert!(
        timeline.contains(&format!(r#""event":"tier0_reconstructed","step":{kill_step}"#)),
        "tier-0 reconstruction missing: {timeline}"
    );
    assert!(
        timeline.contains(r#""event":"proactive_checkpoint"#),
        "recovered state was not locked in: {timeline}"
    );
    assert!(
        !timeline.contains(r#""event":"tier1_rollback"#)
            && !timeline.contains(r#""event":"attempt_failed"#),
        "tier-0 path must not roll back: {timeline}"
    );

    // Every particle accounted for, by id.
    let positions: Vec<(u64, [f32; 3])> = read_json(&out.join("positions.txt"))
        .lines()
        .map(|line| {
            let mut it = line.split_whitespace();
            let id: u64 = it.next().unwrap().parse().unwrap();
            let x: f32 = it.next().unwrap().parse().unwrap();
            let y: f32 = it.next().unwrap().parse().unwrap();
            let z: f32 = it.next().unwrap().parse().unwrap();
            (id, [x, y, z])
        })
        .collect();
    assert_eq!(positions.len(), expected, "particles lost across the kill");
    for (i, &(id, _)) in positions.iter().enumerate() {
        assert_eq!(id, i as u64, "particle ids must be gapless after recovery");
    }

    // Momentum within tolerance of the fault-free run (replicas track
    // their lost originals to force-noise, not bit-exactly).
    let (p_clean, ke_clean) = momentum_and_ke(&dir_clean, 4, R4);
    let (p_faulty, _) = momentum_and_ke(&out.join("ckpt"), 4, R4);
    let scale = (2.0 * ke_clean * expected as f64).sqrt();
    for a in 0..3 {
        assert!(
            (p_faulty[a] - p_clean[a]).abs() < 0.02 * scale,
            "momentum[{a}] drifted: {} vs {} (scale {scale})",
            p_faulty[a],
            p_clean[a]
        );
    }

    // Power spectrum within tolerance, bin by bin.
    let pk_clean = measure_pk(&clean.positions);
    let pk_faulty = measure_pk(&positions);
    for i in 0..pk_clean.p.len() {
        if pk_clean.count[i] > 0 && pk_clean.p[i] > 0.0 {
            let rel = (pk_faulty.p[i] - pk_clean.p[i]).abs() / pk_clean.p[i];
            assert!(
                rel < 0.02,
                "P(k) bin {i} off by {rel}: {} vs {}",
                pk_faulty.p[i],
                pk_clean.p[i]
            );
        }
    }

    // A world that never resizes still journals itself: the respawned
    // victim oriented from this record, which must read "launch size,
    // nothing in flight" — and must be invisible to set discovery (the
    // `retain = 2` trim ran next to it all along).
    let ckpt = out.join("ckpt");
    let meta = read_json(&ckpt.join("world_meta.json"));
    assert!(
        meta.contains(&format!(r#""active":{R4},"generation":0,"#))
            && meta.contains(r#""resizing":null"#),
        "plain run must leave a settled launch-size world record: {meta}"
    );
    let sets = complete_sets(&ckpt, R4);
    assert!(
        sets.len() <= 2 && sets.last() == Some(&4),
        "world record disturbed checkpoint set discovery: {sets:?}"
    );

    // Wire stats exist for every rank and saw real traffic.
    for rank in 0..R4 {
        let body = read_json(&out.join(format!("wire_stats_rank{rank}.json")));
        assert!(json_u64(&body, "bytes_on_wire") > 0, "{body}");
        assert_eq!(json_u64(&body, "crc_rejects"), 0, "{body}");
    }
    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&out);
}

// -- distributed-FFT determinism over real sockets ---------------------

/// Mirror of `pencil_grid_val` in src/bin/mprun.rs: the reference run
/// must feed the socket children's exact field, bit for bit.
fn pencil_grid_val(i: u64) -> f64 {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    s ^= s >> 30;
    s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s ^= s >> 27;
    (s as f64 / u64::MAX as f64) - 0.5
}

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The r2c pencil spectrum computed with every transpose crossing a
/// real TCP link must be bitwise identical to an in-process run of the
/// same field: each child writes an FNV hash of its spectrum; here we
/// recompute those hashes with the in-process `Machine` and demand
/// equality per rank.
#[test]
fn pencil_socket_spectrum_matches_in_process() {
    use hacc::comm::Machine;
    use hacc::fft::{DistRealFft3, RealPencilFft};

    const RANKS: usize = 4;
    const N: usize = 16;
    let out = scratch("pencil");
    let status = Command::new(MPRUN)
        .args(["--ranks", "4", "--scenario", "pencil", "--out"])
        .arg(&out)
        .status()
        .expect("launch mprun");
    assert!(status.success(), "mprun pencil run failed: {status:?}");

    // In-process reference: same field.
    let (hashes, _) = Machine::new(RANKS).run(|comm| {
        let fft = RealPencilFft::with_grid(&comm, N, 2, 2);
        let rl = fft.real_layout();
        let mut local = vec![0.0f64; rl.len()];
        for (i, v) in local.iter_mut().enumerate() {
            let g = rl.global_coords(i);
            *v = pencil_grid_val(((g[0] * N + g[1]) * N + g[2]) as u64);
        }
        let k = fft.forward(local);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for c in &k {
            h = fnv(h, c.re.to_bits());
            h = fnv(h, c.im.to_bits());
        }
        (comm.rank(), h)
    });

    for &(rank, want) in &hashes {
        let body = read_json(&out.join(format!("pencil_rank{rank}.json")));
        assert_eq!(
            json_u64(&body, "k_hash"),
            want,
            "rank {rank}: socket spectrum differs from in-process run: {body}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

// -- elastic rank scaling over real processes --------------------------

fn cfg36() -> SimConfig {
    SimConfig {
        ng: 36,
        box_len: 64.0,
        a_init: 0.2,
        a_final: 0.32,
        steps: 10,
        subcycles: 2,
        solver: SolverKind::TreePm,
        ..SimConfig::small_lcdm()
    }
}

fn ics36() -> hacc::ics::IcsRealization {
    let power = LinearPower::new(&Cosmology::lcdm(), Transfer::EisensteinHuNoWiggle);
    hacc::ics::zeldovich(18, 64.0, &power, 0.2, 31)
}

fn parse_positions(path: &Path) -> Vec<(u64, [f32; 3])> {
    read_json(path)
        .lines()
        .map(|line| {
            let mut it = line.split_whitespace();
            let id: u64 = it.next().unwrap().parse().unwrap();
            let x: f32 = it.next().unwrap().parse().unwrap();
            let y: f32 = it.next().unwrap().parse().unwrap();
            let z: f32 = it.next().unwrap().parse().unwrap();
            (id, [x, y, z])
        })
        .collect()
}

/// Wall-clock milliseconds of the first hub-timeline entry with the
/// given kind and rank. The timeline array is flat JSON objects, so the
/// first `wall_ms` after the matching prefix belongs to that entry.
fn hub_event_wall_ms(hub: &str, kind: &str, rank: usize) -> u64 {
    let pat = format!(r#"{{"kind":"{kind}","rank":{rank},"#);
    let at = hub
        .find(&pat)
        .unwrap_or_else(|| panic!("no '{kind}' timeline entry for rank {rank}: {hub}"));
    json_u64(&hub[at..], "wall_ms")
}

/// Acceptance for elastic scaling over sockets: six OS processes, four
/// active at launch and two parked. The schedule grows the world 4→6 at
/// step 3 (the hub activates the parked processes on demand) and shrinks
/// it 6→3 at step 7 (retirees park again). A seeded SIGKILL lands inside
/// the six-rank era and must resolve via online Tier-0 reconstruction
/// without disturbing either resize. The run must certify the global
/// particle count at every handover and land within the fault-free
/// fixed-world tolerances for momentum and P(k).
#[test]
fn elastic_world_resizes_across_processes_under_chaos() {
    const CAPACITY: usize = 6;
    let seed = fault_seed();
    let victim = (seed as usize) % CAPACITY; // any rank is active in the 6-rank era
    let kill_step = 6; // inside the grown era, after the step-3 resize commit

    // Fault-free fixed-world reference on the in-process backend: the
    // trajectory is a property of the physics, not of the world size.
    let dir_ref = scratch("elastic_ref");
    let realization = ics36();
    let expected = realization.len();
    let mut rc = ResilienceConfig::new(4, &dir_ref);
    rc.invariants = Some(InvariantConfig::default());
    rc.retain = Some(2);
    let reference =
        run_resilient(cfg36(), &realization, &rc, &FaultPlan::none()).expect("reference run");
    assert_eq!(reference.attempts, 1);

    let out = scratch("elastic_chaos");
    let status = Command::new(MPRUN)
        .args([
            "--ranks".into(), CAPACITY.to_string(),
            "--active".into(), "4".into(),
            "--scale".into(), "6@3,3@7".into(),
            "--scenario".into(), "elastic".into(),
            "--seed".into(), seed.to_string(),
            "--kill".into(), format!("{victim}@{kill_step}"),
            "--out".into(), out.display().to_string(),
        ])
        .status()
        .expect("launch mprun");
    assert!(status.success(), "mprun elastic run failed: {status:?}");

    // The hub killed exactly the planned victim, respawned it, and every
    // child exited clean.
    let hub = read_json(&out.join("hub_report.json"));
    assert!(
        hub.contains(&format!(r#""killed":[{{"rank":{victim},"step":{kill_step}}}]"#)),
        "hub kill record wrong: {hub}"
    );
    assert!(
        hub.contains(&format!(r#""respawned":[{victim}]"#)),
        "victim was not respawned: {hub}"
    );
    assert!(hub.contains(r#""exit_failures":[]"#), "children failed: {hub}");

    // The timeline holds only real state changes: the parked reserves
    // were activated for the grow at step 3 and nothing else was, the
    // shrink parked ranks 3–5 at step 7, and the end-of-run release
    // (epoch u64::MAX) is not an event.
    let stamped = |kind: &str| -> Vec<(usize, u64)> {
        let pat = format!(r#"{{"kind":"{kind}","rank":"#);
        hub.match_indices(&pat)
            .map(|(at, _)| {
                let entry = &hub[at..];
                (json_u64(entry, "rank") as usize, json_u64(entry, "step"))
            })
            .collect()
    };
    assert_eq!(
        stamped("activated"),
        vec![(4, 3), (5, 3)],
        "activations: {hub}"
    );
    let mut parked = stamped("parked");
    parked.sort_unstable();
    assert_eq!(parked, vec![(3, 7), (4, 7), (5, 7)], "parkings: {hub}");
    assert!(
        !hub.contains(&u64::MAX.to_string()),
        "a sentinel step was stamped: {hub}"
    );

    // Detection latency is visible in the hub timeline: the kill, the
    // heartbeat declaration, and the respawn are stamped in order, and
    // declaration follows the kill within the heartbeat budget (~200 ms
    // at default config; 10 s means "detected promptly", with CI slack).
    let killed_ms = hub_event_wall_ms(&hub, "killed", victim);
    let declared_ms = hub_event_wall_ms(&hub, "declared", victim);
    let respawned_ms = hub_event_wall_ms(&hub, "respawned", victim);
    assert!(
        declared_ms >= killed_ms,
        "declared before killed: {declared_ms} < {killed_ms}"
    );
    assert!(
        declared_ms - killed_ms < 10_000,
        "heartbeat declaration too slow: {} ms",
        declared_ms - killed_ms
    );
    assert!(
        respawned_ms >= declared_ms,
        "respawned before declared: {respawned_ms} < {declared_ms}"
    );

    // A reporter rank that lived through the kill and stays active in
    // every era (ranks 0 and 1 both survive the shrink to 3): its
    // timeline must show both resizes certified and committed, the
    // in-era kill absorbed by Tier-0, and no rollback attributable to
    // scaling.
    let reporter = usize::from(victim == 0);
    let timeline = read_json(&out.join(format!("timeline_rank{reporter}.json")));
    assert!(
        timeline.contains(r#""event":"scale_planned","step":3,"from":4,"to":6"#),
        "grow was not planned: {timeline}"
    );
    assert!(
        timeline.contains(&format!(
            r#""event":"scale_committed","step":3,"from":4,"to":6,"count":{expected},"generation":1"#
        )),
        "grow did not certify+commit: {timeline}"
    );
    assert!(
        timeline.contains(&format!(
            r#""event":"scale_committed","step":7,"from":6,"to":3,"count":{expected},"generation":2"#
        )),
        "shrink did not certify+commit: {timeline}"
    );
    assert!(
        timeline.contains(&format!(
            r#""event":"rank_failure_detected","step":{kill_step},"rank":{victim}"#
        )),
        "in-era kill not detected: {timeline}"
    );
    assert!(
        timeline.contains(&format!(r#""event":"tier0_reconstructed","step":{kill_step}"#)),
        "in-era kill not Tier-0 reconstructed: {timeline}"
    );
    assert!(
        !timeline.contains(r#""event":"scale_aborted"#)
            && !timeline.contains(r#""event":"tier1_rollback"#),
        "chaos run must not roll back or abort a resize: {timeline}"
    );
    // Satellite: the retry budget is recorded in the timeline header.
    assert!(
        timeline.contains(r#""max_retries":"#) && timeline.contains(r#""backoff_base_ms":"#),
        "timeline header must carry the retry budget: {timeline}"
    );

    // Every particle accounted for, by id, after two migrations + a kill.
    let positions = parse_positions(&out.join("positions.txt"));
    assert_eq!(positions.len(), expected, "particles lost across resizes");
    for (i, &(id, _)) in positions.iter().enumerate() {
        assert_eq!(id, i as u64, "particle ids must be gapless after resizes");
    }

    // The run finished at the shrunken size with a complete final set.
    let ckpt = out.join("ckpt");
    assert!(
        complete_sets(&ckpt, 3).contains(&10),
        "no complete 3-rank set at the final step"
    );
    let meta = read_json(&ckpt.join("world_meta.json"));
    assert!(
        meta.contains(r#""active":3"#) && meta.contains(r#""resizing":null"#),
        "world metadata not settled at the final size: {meta}"
    );

    // Physics within fixed-world tolerances: momentum per axis and P(k)
    // bin by bin against the 4-rank fault-free reference.
    let (p_ref, ke_ref) = momentum_and_ke(&dir_ref, 10, 4);
    let (p_elastic, _) = momentum_and_ke(&ckpt, 10, 3);
    let scale = (2.0 * ke_ref * expected as f64).sqrt();
    for a in 0..3 {
        assert!(
            (p_elastic[a] - p_ref[a]).abs() < 0.02 * scale,
            "momentum[{a}] drifted across resizes: {} vs {} (scale {scale})",
            p_elastic[a],
            p_ref[a]
        );
    }
    let pk_ref = measure_pk(&reference.positions);
    let pk_elastic = measure_pk(&positions);
    for i in 0..pk_ref.p.len() {
        if pk_ref.count[i] > 0 && pk_ref.p[i] > 0.0 {
            let rel = (pk_elastic.p[i] - pk_ref.p[i]).abs() / pk_ref.p[i];
            assert!(
                rel < 0.02,
                "P(k) bin {i} off by {rel}: {} vs {}",
                pk_elastic.p[i],
                pk_ref.p[i]
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&out);
}

/// A SIGKILL at the resize fence itself: the victim dies at its step-4
/// beat, which is the certification step right after the grow is
/// announced. The grow must abort cleanly — one Tier-1 rollback to the
/// pre-resize checkpoint, no commit, no retry of the resize — and the
/// run must still finish at the original four ranks with every particle
/// accounted for.
#[test]
fn sigkill_at_resize_fence_aborts_grow_across_processes() {
    const CAPACITY: usize = 6;
    const VICTIM: usize = 1;
    let out = scratch("elastic_abort");
    let expected = ics36().len();
    let status = Command::new(MPRUN)
        .args([
            "--ranks".into(), CAPACITY.to_string(),
            "--active".into(), "4".into(),
            "--scale".into(), "6@3".into(),
            "--scenario".into(), "elastic".into(),
            "--seed".into(), "9".into(),
            "--kill".into(), format!("{VICTIM}@4"),
            "--out".into(), out.display().to_string(),
        ])
        .status()
        .expect("launch mprun");
    assert!(status.success(), "mprun fence-kill run failed: {status:?}");

    let hub = read_json(&out.join("hub_report.json"));
    assert!(
        hub.contains(&format!(r#""killed":[{{"rank":{VICTIM},"step":4}}]"#)),
        "hub kill record wrong: {hub}"
    );
    assert!(
        hub.contains(&format!(r#""respawned":[{VICTIM}]"#)),
        "victim was not respawned: {hub}"
    );
    assert!(hub.contains(r#""exit_failures":[]"#), "children failed: {hub}");

    // Rank 0's timeline: the grow was planned, the fence broke, the
    // resize aborted and rolled back exactly once — and was not retried.
    let timeline = read_json(&out.join("timeline_rank0.json"));
    assert!(
        timeline.contains(r#""event":"scale_planned","step":3,"from":4,"to":6"#),
        "grow was not planned: {timeline}"
    );
    assert!(
        timeline.contains(r#""event":"scale_aborted","step":3,"from":4,"to":6"#),
        "fence kill must abort the grow: {timeline}"
    );
    assert!(
        !timeline.contains(r#""event":"scale_committed"#),
        "broken fence must not commit: {timeline}"
    );
    assert!(
        timeline.contains(r#""event":"tier1_rollback","step":4,"resume_step":3"#),
        "abort must roll back to the pre-resize set: {timeline}"
    );
    assert_eq!(
        timeline.matches(r#""event":"scale_planned"#).count(),
        1,
        "aborted resize must not be retried: {timeline}"
    );
    assert_eq!(
        timeline.matches(r#""event":"tier1_rollback"#).count(),
        1,
        "exactly one rollback may be attributed to the fence kill: {timeline}"
    );

    // The run still completes at the original size, losing nothing.
    let positions = parse_positions(&out.join("positions.txt"));
    assert_eq!(positions.len(), expected, "particles lost across the abort");
    for (i, &(id, _)) in positions.iter().enumerate() {
        assert_eq!(id, i as u64, "particle ids must be gapless after the abort");
    }
    let ckpt = out.join("ckpt");
    assert!(
        complete_sets(&ckpt, 4).contains(&10),
        "no complete 4-rank set at the final step"
    );
    let meta = read_json(&ckpt.join("world_meta.json"));
    assert!(
        meta.contains(r#""active":4"#) && meta.contains(r#""resizing":null"#),
        "world metadata must settle back at four ranks: {meta}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

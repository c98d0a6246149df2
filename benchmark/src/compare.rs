//! `--compare A.json B.json`: is B worse than A by more than the bound?

use crate::json::Json;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// A run's own spread is wider than the bound, so a difference of
    /// that size cannot be told from noise.
    Unresolved,
}

/// Judge one end-to-end metric. `change` is how much worse B is than A,
/// as a share of A (negative when B is better).
pub fn judge(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> (f64, Verdict) {
    let change = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if change > bound || change.is_nan() {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (change, verdict)
}

/// Counts that must be bit-equal between two runs of one commit on one
/// seed: interactions, bytes by class and on the wire, messages. Retry
/// and reject counters are the link's weather, not the program's.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("short.")
        || name == "comm.msgs"
        || (name.starts_with("comm.") && name.ends_with("_bytes"))
}

/// Print one row per (workload, end-to-end metric) and per exact count
/// that differs. Returns whether B passes: no row `worse`, and, for
/// equal seeds, every exact count identical.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let field = |j: &Json, path: &[&str]| -> Option<f64> {
        path.iter().try_fold(j, |j, k| j.get(k))?.as_f64()
    };
    let same_seed = field(a, &["seed"]) == field(b, &["seed"]);
    let mut pass = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let workloads = a.get("workloads").ok_or("A has no workloads")?;
    for (wl, in_a) in workloads.as_obj() {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(wl)) else {
            println!("{wl:<16} missing from B");
            pass = false;
            continue;
        };
        for def in benchmark
            .get("end_to_end")
            .ok_or("no end_to_end in BENCHMARK.json")?
            .as_arr()
        {
            let name = def
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = field(def, &["bound"]).ok_or("metric without a bound")?;
            let lower = def.get("better").and_then(Json::as_str) == Some("lower");
            let get =
                |j: &Json, key: &str| field(j, &["end_to_end", name, key]).unwrap_or(f64::NAN);
            let (va, vb) = (get(in_a, "value"), get(in_b, "value"));
            let spread = get(in_a, "spread").max(get(in_b, "spread"));
            let (change, verdict) = judge(va, vb, lower, bound, spread);
            pass &= verdict != Verdict::Worse;
            println!(
                "{wl:<16} {name:<24} {va:>14.6} {vb:>14.6} {:>+7.1}% {:>5.0}%  {}",
                change * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Worse => "worse".to_string(),
                    Verdict::Unresolved => format!("unresolved (spread {:.1}%)", spread * 100.0),
                }
            );
        }
        if same_seed {
            for (name, entry) in in_a.get("counts").map_or(&[][..], Json::as_obj) {
                let (va, vb) = (
                    field(entry, &["value"]),
                    field(in_b, &["counts", name, "value"]),
                );
                if is_exact_count(name) && va.map(f64::to_bits) != vb.map(f64::to_bits) {
                    println!("{wl:<16} {name:<24} count differs: {va:?} vs {vb:?}");
                    pass = false;
                }
            }
        }
    }
    if same_seed {
        println!(
            "counts: {}",
            if pass {
                "every exact count identical"
            } else {
                "see rows above"
            }
        );
    } else {
        println!("counts: not compared (different seeds)");
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 8% slower is inside a 10% bound, 12% is not.
        assert_eq!(judge(1.0, 1.08, true, 0.10, 0.01).1, Verdict::Ok);
        assert_eq!(judge(1.0, 1.12, true, 0.10, 0.01).1, Verdict::Worse);
        assert_eq!(judge(1.0, 0.5, true, 0.10, 0.01).1, Verdict::Ok);
        // Higher is better: a fall is the bad direction.
        assert_eq!(judge(100.0, 88.0, false, 0.10, 0.0).1, Verdict::Worse);
        assert_eq!(judge(100.0, 130.0, false, 0.10, 0.0).1, Verdict::Ok);
        // A spread wider than the bound hides any verdict.
        assert_eq!(judge(1.0, 1.5, true, 0.10, 0.2).1, Verdict::Unresolved);
        assert_eq!(judge(1.0, f64::NAN, true, 0.10, 0.0).1, Verdict::Worse);
    }

    #[test]
    fn exact_counts_leave_out_times_and_retries() {
        for name in [
            "short.interactions",
            "short.pair_evals",
            "comm.a2a_bytes",
            "comm.wire_bytes",
            "comm.msgs",
        ] {
            assert!(is_exact_count(name), "{name}");
        }
        for name in [
            "comm.frames_retried",
            "comm.crc_rejects",
            "comm.alltoallv_gbs",
        ] {
            assert!(!is_exact_count(name), "{name}");
        }
    }
}

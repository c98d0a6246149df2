//! Starting a world and reading back what its ranks report.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::Duration;

use hacc::comm::hub::{self, HubOptions};

use crate::spec::{Backend, Workload, MEMORY_WORLD_STEPS, TIMED_STEPS};
use crate::trace::{unix_ns, Clock, Span, ORIGIN_ENV};

/// Everything the ranks of one world printed, by metric name and rank.
#[derive(Default)]
pub struct WorldOutput {
    metrics: BTreeMap<String, BTreeMap<usize, Vec<f64>>>,
    pub spans: Vec<Span>,
    pub digest: Option<u64>,
    /// Panic messages of rank threads or processes.
    pub panics: Vec<String>,
    /// Every process of the world exited with code 0.
    pub clean_exit: bool,
    /// Launch to last exit, on the launcher's clock.
    pub wall_ns: u64,
}

impl WorldOutput {
    fn absorb(&mut self, text: &str) {
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match it.next() {
                Some("@m") => {
                    let fields = (|| {
                        let rank: usize = it.next()?.parse().ok()?;
                        let name = it.next()?;
                        let value: f64 = it.next()?.parse().ok()?;
                        Some((rank, name, value))
                    })();
                    if let Some((rank, name, value)) = fields {
                        self.metrics
                            .entry(name.to_string())
                            .or_default()
                            .entry(rank)
                            .or_default()
                            .push(value);
                    }
                }
                Some("@d") => {
                    self.digest = it.nth(1).and_then(|h| u64::from_str_radix(h, 16).ok());
                }
                Some("@s") => self.spans.extend(Span::from_line(line)),
                Some("@p") => self.panics.push(line[2..].trim().to_string()),
                _ => {}
            }
        }
    }

    /// Rank 0's values of a metric, in the order reported.
    pub fn rank0(&self, name: &str) -> &[f64] {
        self.metrics
            .get(name)
            .and_then(|by_rank| by_rank.get(&0))
            .map_or(&[], Vec::as_slice)
    }

    /// Each reporting rank's values of a metric.
    pub fn per_rank(&self, name: &str) -> impl Iterator<Item = &[f64]> {
        self.metrics
            .get(name)
            .into_iter()
            .flat_map(|by_rank| by_rank.values().map(Vec::as_slice))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// Timed steps with tracing off: the end-to-end times and the counts.
    Timed,
    /// Timed steps with spans, probe replays and the serial reference.
    Traced,
    /// A short world whose only product is its peak resident set. It
    /// runs with glibc's mmap threshold pinned at its initial 128 KiB,
    /// so every large buffer goes back to the kernel when freed and
    /// `VmHWM` is the peak of live memory. Left adaptive, the heap's
    /// retention pattern makes `VmHWM` of `treepm.serial` jump by a
    /// quarter from one seed to the next. Pinning costs page faults on
    /// every large allocation, so this world's times are not used.
    Memory,
}

impl WorldKind {
    /// Timed steps a world of this kind runs after its warm-up.
    pub fn timed_steps(self) -> usize {
        match self {
            WorldKind::Memory => MEMORY_WORLD_STEPS,
            WorldKind::Timed | WorldKind::Traced => TIMED_STEPS,
        }
    }
}

/// Start one world of `wl` and wait for it to end. In-process and
/// serial worlds are one child process; a socket world is the hub (in
/// this process) plus one child per rank, as `hacc-mprun` does it.
pub fn launch(
    wl: &Workload,
    seed: u64,
    kind: WorldKind,
    smoke: bool,
) -> std::io::Result<WorldOutput> {
    let exe = std::env::current_exe()?;
    let origin = unix_ns();
    let clock = Clock::since(origin);
    let command = || {
        let mut c = Command::new(&exe);
        c.arg("world")
            .args(["--workload", wl.name])
            .args(["--seed", &seed.to_string()])
            .args(["--trace", if kind == WorldKind::Traced { "1" } else { "0" }])
            .args(["--steps", &kind.timed_steps().to_string()])
            .args(smoke.then_some("--smoke"))
            .env(ORIGIN_ENV, origin.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if kind == WorldKind::Memory {
            c.env("MALLOC_MMAP_THRESHOLD_", "131072");
        }
        c
    };

    let mut out = WorldOutput::default();
    if wl.backend == Backend::Socket {
        let mut opts = HubOptions::new(wl.ranks);
        opts.respawn = false;
        // Rank 0 computes the serial reference while the others wait in
        // a receive; the default 10 s deadline is too close to that on a
        // slow day. A rank that does die costs the others this long.
        opts.watchdog = Duration::from_secs(30);
        let ranks = wl.ranks;
        // A reader per child drains its pipe while the world runs.
        let mut readers = Vec::new();
        let report = hub::run(opts, |rank, incarnation, hub_addr| {
            let mut child = command()
                .env("HACC_HUB", hub_addr)
                .env("HACC_RANK", rank.to_string())
                .env("HACC_RANKS", ranks.to_string())
                .env("HACC_INCARNATION", incarnation.to_string())
                .spawn()?;
            let mut pipe = child.stdout.take().expect("piped stdout");
            readers.push(std::thread::spawn(move || {
                let mut text = String::new();
                pipe.read_to_string(&mut text).map(|_| text)
            }));
            Ok(child)
        })?;
        out.clean_exit = report.clean();
        for reader in readers {
            out.absorb(&reader.join().expect("pipe reader panicked")?);
        }
    } else {
        let done = command().spawn()?.wait_with_output()?;
        out.clean_exit = done.status.success();
        out.absorb(&String::from_utf8_lossy(&done.stdout));
    }
    out.wall_ns = clock.now_ns();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_stream_is_sorted_by_name_and_rank() {
        let mut out = WorldOutput::default();
        out.absorb(
            "noise from the program\n\
             @m 0 step_s 0.5\n@m 1 step_s 0.75\n@m 0 step_s 0.25\n\
             @m 1 comm.msgs 12\n@m 0 broken\n\
             @d 0 00000000000000ff\n\
             @p panicked at dist.rs:390:13: drifted\n\
             @s 4294967298 1 0 3 10 20 step kernel_s=0.5\n",
        );
        assert_eq!(out.rank0("step_s"), [0.5, 0.25]);
        assert_eq!(out.rank0("comm.msgs"), [0.0; 0]);
        assert_eq!(out.per_rank("step_s").count(), 2);
        assert_eq!(out.per_rank("comm.msgs").next(), Some(&[12.0][..]));
        assert_eq!(out.per_rank("absent").count(), 0);
        assert_eq!(out.digest, Some(255));
        assert_eq!(out.panics, ["panicked at dist.rs:390:13: drifted"]);
        assert_eq!(out.spans.len(), 1);
        assert_eq!(out.spans[0].attrs, [("kernel_s".to_string(), 0.5)]);
    }
}
